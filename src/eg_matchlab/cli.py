"""Command-line interface: every subsystem behind one binary.

Exit codes: 0 success, 2 input error, 3 capability/budget error.  Output is
machine-readable JSON on stdout (or --out FILE); diagnostics go to stderr.
``gen``, ``improve`` and ``montecarlo`` require an explicit --seed;
``extremal`` defaults it to 0 and draws from it only in --mode heur.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import bounds, decomposition, harness, moves
from .errors import CapabilityError, InputError
from .graph_core import (Graph, GnpParams, dense_regime_p, gen_gnp,
                         vset_members)
from .matching import (max_matching, tutte_berge_witness,
                       vertex_cover_number)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3


def _read_graph(path: str) -> Graph:
    if path == "-":
        return Graph.from_edge_list_text(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Graph.from_edge_list_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# strict JSON: a NaN or infinity raises here instead of reaching stdout
_json = functools.partial(json.dumps, sort_keys=True, allow_nan=False)


def _emit_json(args, obj) -> None:
    _emit(args, _json(obj) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    g = gen_gnp(GnpParams(args.n, args.p, args.seed))
    _emit(args, g.to_edge_list_text())
    return EXIT_OK


def _cmd_nu(args) -> int:
    g = _read_graph(args.file)
    mm = max_matching(g)
    _emit_json(args, {"n": g.n, "m": g.m, "nu": mm.size,
                      "matching": [list(e) for e in mm.pairs]})
    return EXIT_OK


def _cmd_tau(args) -> int:
    g = _read_graph(args.file)
    tau = vertex_cover_number(g, args.budget)
    _emit_json(args, {"n": g.n, "m": g.m, "tau": tau})
    return EXIT_OK


def _cmd_tb_witness(args) -> int:
    g = _read_graph(args.file)
    w = tutte_berge_witness(g)
    _emit_json(args, {"n": g.n, "s_set": vset_members(w.s_set),
                      "odd_count": w.odd_count, "deficiency": w.deficiency})
    return EXIT_OK


def _cmd_extremal(args) -> int:
    g = _read_graph(args.file)
    res = decomposition.extremal(g, args.k, mode=args.mode,
                                 n_exact=args.n_exact, seed=args.seed)
    obj = {"k": res.k, "size": res.size,
           "maximizer_count": res.maximizer_count,
           "exact": res.exact, "lower_bound_only": res.lower_bound_only,
           "forms": [_forms_json(f) for f in res.forms]}
    if res.heuristic_witnesses:
        obj["heuristic"] = res.heuristic_witnesses
    _emit_json(args, obj)
    return EXIT_OK


def _forms_json(forms: dict) -> dict:
    return {"canonical": forms["canonical"],
            "form1": [vset_members(w) for w in forms["form1"]],
            "form2": [vset_members(t) for t in forms["form2"]]}


def _cmd_egcheck(args) -> int:
    g = _read_graph(args.file)
    if args.k is not None:
        res = decomposition.eg_check(g, args.k, n_exact=args.n_exact)
        _emit_json(args, _egcheck_json(res, g.n))
        return EXIT_OK
    per_k = decomposition.eg_check_all(g, n_exact=args.n_exact)
    obj = {"per_k": {str(k): _egcheck_json(v, g.n)
                     for k, v in per_k.items()},
           "all_hold": all(v.verdict == "holds" for v in per_k.values())}
    _emit_json(args, obj)
    return EXIT_OK


def _egcheck_json(res, n: int) -> dict:
    obj = {"k": res.k, "verdict": res.verdict.upper(), "size": res.size,
           "maximizer_count": res.maximizer_count}
    if 2 * res.k + 1 > n:                   # no (2k + 1)-set: see README
        obj["two_k_plus_1_exceeds_n"] = True
    if res.counterexample is not None:
        obj["counterexample"] = [list(e) for e in res.counterexample]
    return obj


def _cmd_improve(args) -> int:
    g = _read_graph(args.file)
    try:
        pi_obj = json.loads(args.pi)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad decomposition JSON: {exc}") from exc
    pi = decomposition.Decomposition.from_json_obj(g.n, pi_obj)
    result = moves.improve(g, pi, max_steps=args.max_steps, seed=args.seed)
    lines = []
    for rep in result.trace:
        lines.append(_json({
            "case": rep.case_id,
            "size_before": rep.size_before,
            "size_after": rep.size_after,
            "moved": vset_members(rep.moved_set),
            "accepted": rep.accepted,
            "pi_after": rep.pi_after.to_json_obj(),
        }))
    lines.append(_json({
        "final": result.final.to_json_obj(),
        "reason": result.reason,
        "start_size": result.start_size,
        "final_size": result.final_size,
    }))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _resolve_p(args) -> float:
    if args.p == "auto":
        return dense_regime_p(args.n)[0]
    try:
        return float(args.p)
    except ValueError as exc:
        raise InputError(f"bad p value {args.p!r}") from exc


def _cmd_budget(args) -> int:
    p = _resolve_p(args)
    res = bounds.union_budget(args.tag, args.n, p, args.eps)
    # an empty sum has log-value -inf, which JSON cannot hold
    log10 = None if res.log_value == -math.inf else res.log10_value
    _emit_json(args, {"tag": res.tag, "n": res.n, "p": res.p,
                      "eps": res.epsilon, "value_log10": log10,
                      "vacuous": res.vacuous, "notes": res.notes})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    query = bounds.TailQuery(args.m, args.q, args.lam, args.K)
    upper = bounds.chernoff_upper(query)
    lower = bounds.chernoff_lower(query)
    ld = bounds.large_deviation(query)
    obj = {"m": args.m, "q": args.q, "lambda": args.lam, "K": args.K,
           "mu": query.mu,
           "upper": {"phi": upper.phi_form, "quadratic": upper.quadratic_form,
                     "degenerate": upper.degenerate},
           "lower": {"phi": lower.phi_form, "quadratic": lower.quadratic_form,
                     "clamped": lower.clamped},
           "large_deviation": {"value": ld.value, "vacuous": ld.vacuous}}
    if args.t is not None:
        obj["exact_tail"] = bounds.binom_tail_exact(args.m, args.q, args.t,
                                                    args.side)
    _emit_json(args, obj)
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    spec = harness.RegimeSpec(
        n=args.n, p_rule=args.regime, trials=args.trials,
        master_seed=args.seed,
        checks=tuple(args.checks.split(",")) if args.checks else (),
        p_explicit=args.p, forest_c=args.forest_c,
        eg_exact_cutoff=args.eg_cutoff)
    records, summary = harness.run_trials(spec)
    csv_text = harness.records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sys.stdout.write(_json(summary) + "\n")
    else:
        # keep stdout a single machine-readable document
        sys.stdout.write(csv_text)
        sys.stderr.write(_json(summary) + "\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = _read_graph(args.file)
    cert, reason = harness.build_failure_certificate(g, args.budget)
    count, witnesses = harness.count_isolated_p3(g)
    obj = {"n": g.n, "m": g.m, "p3_count": count,
           "p3_witnesses": [list(w) for w in witnesses],
           "certificate_present": cert is not None}
    if cert is None:
        obj["reason"] = reason
    else:
        obj["conclusion"] = cert.conclusion
        obj["empty_half_absent"] = cert.empty_half_absent
    if args.verify:
        verdict = harness.eg_fails_at_nu(g)
        obj["direct_check"] = {"verdict": verdict.verdict, "nu": verdict.nu,
                               "tau": verdict.tau}
    _emit_json(args, obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # no prefix matching anywhere: a mistyped or removed flag must not turn
    # into another flag that it happens to abbreviate
    ap = argparse.ArgumentParser(
        prog="eg-matchlab", allow_abbrev=False,
        description="matching-number extremal subgraphs, bounds, experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("gen", help="sample G(n,p) to edge-list text")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = add_parser("nu", help="maximum matching size")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_nu)

    p = add_parser("tau", help="vertex cover number (exact)")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tau)

    p = add_parser("tb-witness",
                   help="Tutte-Berge witness: the Gallai-Edmonds barrier A(G)")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tb_witness)

    p = add_parser("extremal",
                   help="largest subgraph with matching number k")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "heur"), default="exact")
    p.add_argument("--n-exact", type=int,
                   default=decomposition.DEFAULT_N_EXACT_EXTREMAL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extremal)

    p = add_parser("egcheck", help="canonical-forms verdict per k")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n-exact", type=int,
                   default=decomposition.DEFAULT_N_EXACT_EXTREMAL)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_egcheck)

    p = add_parser("improve", help="run improvement moves on a decomposition")
    p.add_argument("file")
    p.add_argument("--pi", required=True,
                   help='JSON: {"S": [...], "blocks": [[...], ...]}')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_improve)

    p = add_parser("bounds",
                   help="Chernoff, large-deviation and exact tail bounds "
                        "for X ~ Bin(m, q)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--side", choices=("gt", "ge", "lt", "le"), default="gt")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bounds)

    p = add_parser("budget", help="one finite-n union-bound budget")
    p.add_argument("--tag", choices=bounds.BUDGET_TAGS, required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--p", default="auto",
                   help="edge probability or 'auto' (= 8 ln n / n)")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_budget)

    p = add_parser("montecarlo", help="seeded trial batches")
    p.add_argument("--regime", choices=tuple(harness.DEFAULT_CHECKS),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=None,
                   help="explicit p (middle/custom regimes)")
    p.add_argument("--forest-c", type=float, default=0.1)
    p.add_argument("--checks", default=None,
                   help="comma list: " + ",".join(harness.CHECK_NAMES))
    p.add_argument("--eg-cutoff", type=int,
                   default=decomposition.DEFAULT_N_EXACT_EXTREMAL)
    p.add_argument("--out", help="CSV file (summary JSON still on stdout)")
    p.set_defaults(fn=_cmd_montecarlo)

    p = add_parser("certify", help="failure certificate at k = nu")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--verify", action="store_true",
                   help="also run the direct support/cover check")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_certify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        bounds_found = [f"{name} bound {value}" for name, value in
                        (("lower", exc.lower), ("upper", exc.upper))
                        if value is not None]
        detail = f" ({', '.join(bounds_found)})" if bounds_found else ""
        print(f"capability error: {exc}{detail}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
