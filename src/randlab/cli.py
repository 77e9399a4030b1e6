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

from .corpus import rand_full_cycle, rand_pl, rand_tilde_perm, rand_window_perm
from .dyadic import (
    MAX_LEVEL,
    DyadicMPT,
    delta_u,
    delta_u_prime,
    delta_w,
    parse_mpt,
    periodic_approximation,
)
from .errors import ConfigError, ParseError, RandlabError
from .groups import MAX_WINDOW, parse_cycles, perm_dp, perm_du, power_invariance_check
from .stepfn import dhat
from .suites import (
    DENSITY_EPS,
    constant_fiber_case,
    neighborhood_case,
    run_all,
    synthesis_case,
)
from .text import format_fraction, parse_fraction
from .tilde import parse_tilde, reduce_pair

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


def _frac(cfg, key, default=None, positive=False) -> Fraction:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing rational key {key!r}")
        return default
    try:
        value = parse_fraction(cfg[key])
    except ParseError:
        raise ConfigError(f"bad rational for {key!r}: {cfg[key]!r}") from None
    if positive and value <= 0:
        raise ConfigError(f"{key!r} must be positive, got {value}")
    return value


def _int(cfg, key, default=None, lo=None, hi=None) -> int:
    if key not in cfg and default is None:
        raise ConfigError(f"missing integer key {key!r}")
    try:
        value = int(cfg.get(key, default))
    except ValueError:
        raise ConfigError(f"bad integer for {key!r}: {cfg[key]!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"{key!r} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key!r} must be at most {hi}, got {value}")
    return value


def _need_seed(cfg) -> int:
    if "seed" not in cfg:
        raise ConfigError("sampled experiments need an explicit seed")
    return _int(cfg, "seed")


def fmt(x) -> str:
    if isinstance(x, Fraction):
        return format_fraction(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _mpt_from_config(cfg, key, rng) -> DyadicMPT:
    value = cfg.get(key, "")
    if value.startswith("mpt"):
        return parse_mpt(value)
    kind, _, level = value.partition(":")
    if kind == "shift":
        return DyadicMPT.shift(_int({key: level}, key, lo=0, hi=MAX_LEVEL))
    if kind == "cycle":
        return rand_full_cycle(rng, _int({key: level}, key, lo=0, hi=MAX_LEVEL))
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
        level = _int(cfg, "level", 4, lo=0, hi=MAX_LEVEL)
        window = _int(cfg, "window", 6, lo=0, hi=MAX_WINDOW)
        count = _int(cfg, "count", 10, lo=1)
        pairs = [
            (i, rand_tilde_perm(rng, level, window), rand_tilde_perm(rng, level, window))
            for i in range(count)
        ]
    budget = _int(cfg, "pointwise_budget", 24, lo=1)
    for i, a, b in pairs:
        pair = reduce_pair(a, b)
        exact = pair.lu_exact_discrete()
        est = pair.lu_estimate()
        rows.append(
            {
                "id": i,
                "dhat_fiber": fmt(dhat(a.f, b.f, perm_dp)),
                "dhat_u_fiber": fmt(dhat(a.f, b.f, perm_du)),
                "delta_u": fmt(delta_u(a.t, b.t)),
                "delta_u_prime": fmt(delta_u_prime(a.t, b.t)),
                "delta_w": fmt(delta_w(a.t, b.t)),
                "pointwise": fmt(pair.pointwise_metric(budget)),
                "lu_exact": fmt(exact),
                "lu_lower": fmt(est.lower),
                "lu_upper": fmt(est.upper),
                "lu_estimate": fmt(est.value),
                "pass": est.lower <= est.value <= exact <= est.upper,
            }
        )
    return rows


def cmd_tower(cfg):
    rng = random.Random(_int(cfg, "seed", 0))
    t = _mpt_from_config(cfg, "mpt", rng)
    height = _int(cfg, "height", lo=1)
    bound = _frac(cfg, "bound", F(1))
    pa = periodic_approximation(t, height, bound)
    return [
        {
            "id": 0,
            "level": t.level,
            "height": height,
            "columns": len(pa.tower.columns),
            "leftover": fmt(pa.tower.leftover.measure),
            "distance": fmt(pa.distance),
            "distance_bound": fmt(bound + F(1, height)),
            # the approximation's tower checks raise on a broken distance
            # bound, cycle length or coverage, so a returned one passes
            "pass": True,
        }
    ]


def cmd_synthesize(cfg):
    rng = random.Random(_need_seed(cfg))
    count = _int(cfg, "count", 1, lo=1)
    level = _int(cfg, "level", 9, lo=0, hi=MAX_LEVEL)
    height = _int(cfg, "height", 8, lo=1, hi=2 ** level)
    k = _int(cfg, "k", 4, lo=1)
    window = _int(cfg, "window", 8, lo=0, hi=MAX_WINDOW)
    eps = _frac(cfg, "eps", positive=True) if "eps" in cfg else None
    emit_certs = cfg.get("emit_certificates", "false") == "true"
    rows = []
    for i in range(count):
        case = synthesis_case(rng, level, height, k, window, eps)
        out = case.out
        rows.append(
            {
                "id": i,
                "kind": "summary",
                "columns": len(out.tower.columns),
                "agreement": fmt(out.agreement),
                "agreement_bound": fmt(1 - case.eps),
                "certificates": len(out.certificates),
                "pass": case.ok,
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
    count = _int(cfg, "count", 10, lo=1)
    eps = _frac(cfg, "eps", DENSITY_EPS, positive=True)
    rows = []
    for i in range(count):
        nbhd = neighborhood_case(rng, eps)
        const = constant_fiber_case(rng, eps)
        residual = max(nbhd.out.fiber_residuals + nbhd.out.aut_residuals)
        for experiment, case, value in (
            ("neighborhood", nbhd, residual),
            ("constant-fiber", const, const.out.lu_value),
        ):
            rows.append(
                {"id": i, "experiment": experiment, "value": fmt(value),
                 "bound": fmt(eps), "pass": case.ok}
            )
    return rows


def cmd_verify(cfg):
    scale = _frac(cfg, "scale", F(1), positive=True)
    seed_base = _int(cfg, "seed", 0)
    return [
        {
            "id": res.criterion.name,
            "description": res.criterion.description,
            "checks": res.checks,
            "failures": res.failures,
            "budget_s": fmt(F(res.criterion.budget_seconds)),
            "pass": res.passed,
        }
        for res in run_all(seed_base=seed_base, scale=scale)
    ]


def cmd_power(cfg):
    if "perm" in cfg:
        p = parse_cycles(cfg["perm"])
        report = power_invariance_check(p, _int(cfg, "n", 2, lo=1))
        census = report.details["census"]
        return [
            {
                "id": 0,
                "experiment": "cycle-power-rule",
                "detail": ";".join(f"{k}:{v}" for k, v in sorted(census.items()) if v),
                "pass": report.ok(),
            }
        ]
    rows = []
    rng = random.Random(_need_seed(cfg))
    count = _int(cfg, "count", 20, lo=1)
    max_n = _int(cfg, "max_n", 12, lo=1)
    for i in range(count):
        p = rand_window_perm(rng, rng.randrange(2, 33))
        ok = all(power_invariance_check(p, n).ok() for n in range(1, max_n + 1))
        rows.append({"id": i, "experiment": "cycle-power-rule", "detail": "", "pass": ok})
    for i in range(count):
        g = rand_pl(rng)
        ok = all(power_invariance_check(g, n).ok() for n in range(2, 6))
        rows.append(
            {"id": count + i, "experiment": "orbital-invariance", "detail": "", "pass": ok}
        )
    return rows


# each command with the config keys it reads; ``seed`` is accepted by all,
# since ``--seed`` folds into every config
COMMANDS = {
    "metrics": (cmd_metrics, {"a", "b", "level", "window", "count", "pointwise_budget"}),
    "tower": (cmd_tower, {"mpt", "height", "bound"}),
    "synthesize": (
        cmd_synthesize,
        {"count", "level", "height", "k", "window", "eps", "emit_certificates"},
    ),
    "density": (cmd_density, {"count", "eps"}),
    "verify": (cmd_verify, {"scale"}),
    "power": (cmd_power, {"perm", "n", "count", "max_n"}),
}


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit(rows, command, digest, fmt_name, stream, runtime):
    runtime_s = f"{runtime:.3f}"
    if fmt_name == "jsonl":
        for row in rows:
            full = {"experiment_id": f"{command}-{row.get('id', 0)}", "digest": digest}
            full.update({k: v for k, v in row.items() if k != "id"})
            full["pass"] = "true" if row.get("pass", False) else "false"
            full["runtime_s"] = runtime_s
            stream.write(json.dumps(full, sort_keys=False) + "\n")
        return
    # columns in order of first appearance ("pass" at the latest after the
    # first row's own keys), the runtime column last
    cols = dict.fromkeys(["experiment_id", "digest"] if rows else [])
    for row in rows:
        cols.update(row)  # only the keys are read
        cols["pass"] = None
    cols.pop("id", None)
    cols.pop("runtime_s", None)
    header = [*cols, "runtime_s"] if rows else []
    writer = csv.writer(stream)
    writer.writerow(header)
    verdict = header.index("pass") if rows else 0
    for row in rows:
        line = [row.get(k, "") for k in header]
        line[0] = f"{command}-{row.get('id', 0)}"
        line[1] = digest
        line[verdict] = "true" if row.get("pass", False) else "false"
        line[-1] = runtime_s
        writer.writerow(line)


def run_command(command: str, cfg: dict[str, str], seed=None, fmt_name="csv", out=None):
    """Execute one subcommand; returns (exit_status, report_text).

    A seed override is folded into the effective config first, so the
    report digest always reflects the inputs that actually ran.
    """
    if seed is not None:
        cfg = dict(cfg, seed=str(seed))
    run, keys = COMMANDS[command]
    unknown = sorted(cfg.keys() - keys - {"seed"})
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(unknown)}")
    start = time.perf_counter()
    rows = run(cfg)
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
