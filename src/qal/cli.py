"""Command-line front end.

Subcommands: estimate (one mean estimate), learn (quantum or classical),
bench (grid runs to CSV), verify (bundled self-checks). Exit codes:
0 success, 1 check failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bench import fit_loglog_slope, load_bench_config, mean_samples_by_epsilon, run_bench
from .checks import verify
from .classical import erm_learn
from .engine import CapacityError
from .estimator import ENGINE_MODES, estimate_mean
from .learner import learn
from .problem import ValidationError, exact_risk, exact_statistics, load_instance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate one hypothesis risk")
    est.add_argument("--instance", required=True)
    est.add_argument("--hypothesis", required=True)
    est.add_argument("--epsilon", type=float, required=True)
    est.add_argument("--delta", type=float, required=True)
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--engine", choices=ENGINE_MODES, default="analytic")

    lrn = sub.add_parser("learn", help="run the quantum or classical learner")
    lrn.add_argument("--instance", required=True)
    lrn.add_argument("--epsilon", type=float, required=True)
    lrn.add_argument("--delta", type=float, required=True)
    lrn.add_argument("--seed", type=int, required=True)
    lrn.add_argument("--method", choices=("quantum", "classical"), default="quantum")
    lrn.add_argument("--engine", choices=ENGINE_MODES, default="analytic")

    ben = sub.add_parser("bench", help="run a benchmark grid and write CSV")
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run the bundled self-checks")
    ver.add_argument("--quick", action="store_true")
    return parser


def _cmd_estimate(args) -> int:
    inst = load_instance(args.instance)
    result = estimate_mean(
        inst, args.hypothesis, args.epsilon, args.delta, rng=args.seed, engine=args.engine
    )
    print(
        json.dumps(
            {
                "instance": args.instance,
                "hypothesis": args.hypothesis,
                "epsilon": args.epsilon,
                "delta": args.delta,
                "engine": args.engine,
                "mu_hat": result.mu_hat,
                "exact_risk": exact_risk(inst, args.hypothesis),
                "phase_bits": result.m,
                "repetitions": result.repetitions,
                "quantum_samples": result.ledger.quantum_samples,
            },
            indent=2,
        )
    )
    return 0


def _cmd_learn(args) -> int:
    inst = load_instance(args.instance)
    stats = exact_statistics(inst)
    best = stats.risks[stats.best_id]
    if args.method == "quantum":
        result = learn(inst, args.epsilon, args.delta, rng=args.seed, engine=args.engine)
        payload = {
            "method": "quantum",
            "chosen_id": result.chosen_id,
            "estimated_risks": dict(zip(result.ids, result.batch.mu_hat.tolist())),
            "samples_used": result.total_quantum_samples,
            "budget": {"epsilon_per_hypothesis": result.budget[0], "delta_per_hypothesis": result.budget[1]},
        }
    else:
        result = erm_learn(inst, args.epsilon, args.delta, rng=args.seed)
        payload = {
            "method": "classical",
            "chosen_id": result.chosen_id,
            "empirical_risks": result.empirical_risks,
            "samples_used": result.samples_used,
        }
    risk_gap = stats.risks[result.chosen_id] - best
    payload["risk_gap"] = risk_gap
    payload["success"] = risk_gap <= args.epsilon
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_bench(args) -> int:
    config = load_bench_config(args.config)
    rows = run_bench(config, args.out)
    summary = {"rows": len(rows), "out": args.out}
    for method in config.methods:
        points = mean_samples_by_epsilon(rows, method)
        if len(points) >= 3:
            summary[f"{method}_loglog_slope"] = fit_loglog_slope(points)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_verify(args) -> int:
    results = verify(quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.observed} (required: {r.required})")
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "learn": _cmd_learn,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed: must be >= 0, got {args.seed}")
        return handlers[args.command](args)
    except (ValidationError, CapacityError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
