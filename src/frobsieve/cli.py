"""Command-line front end.

Every command echoes its full configuration in a manifest so result files
are self-describing, and fixed seeds give byte-identical output apart
from the generated_at stamp.  Integers that can overflow doubles are
printed as decimal strings.

Exit codes: 0 success; 2 bad arguments or parameters (including
evaluation sets too small for the requested class); 3 exhausted search
or sieve budget; 4 inconsistent or corrupted representation data.
"""

import argparse
import json
import random
import sys
import time

from .errors import (
    DegreeNotCompatible,
    FrobsieveError,
    InconsistentFrobenius,
    InsufficientPoints,
    InvalidPoint,
    NotFound,
    RankDeficient,
    SearchFailed,
    SieveTimeout,
)
from .ffcore import is_irreducible
from .galoisrep import (
    ARTIN_SCHREIER,
    BUILDERS,
    ELLIPTIC,
    Representation,
    apply_frobenius,
    degree,
    rep_from_json,
)
from .elliptic import EndomorphismElement
from .indexcalc import build_factor_base, compute_logs, individual_log
from .sieve2d import (
    EERestriction,
    NSClassEE,
    ee_setup,
    ee_sieve,
    jl_setup,
    jl_sieve,
    linear_system_ee,
    projective_class,
)

USAGE_ERROR = 2
EXHAUSTED = 3
INCONSISTENT = 4

_BIG = 2**53


def _num(n: int):
    """Decimal string beyond double precision, plain int below."""
    return str(n) if abs(n) > _BIG else n


def _manifest(command: str, args: argparse.Namespace) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "command") and v is not None
    }
    return {
        "tool": "frobsieve",
        "command": command,
        "params": params,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w")
    return sys.stdout


def _emit(doc: dict, args) -> None:
    stream = _open_out(args)
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")
    if stream is not sys.stdout:
        stream.close()


def _emit_lines(lines, args) -> None:
    stream = _open_out(args)
    for doc in lines:
        stream.write(json.dumps(doc, sort_keys=True))
        stream.write("\n")
    if stream is not sys.stdout:
        stream.close()


def _error(code: str, message: str, context: dict = None) -> None:
    doc = {"code": code, "message": message, "context": context or {}}
    json.dump(doc, sys.stderr, indent=2, sort_keys=True)
    sys.stderr.write("\n")


def _load_rep(path: str) -> Representation:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InconsistentFrobenius(f"{path} is not a JSON document: {exc}") from exc
    if isinstance(data, dict) and "rep" in data:
        data = data["rep"]
    return rep_from_json(data)


def cmd_build(args) -> int:
    if args.kind != ARTIN_SCHREIER and args.d is None:
        raise ValueError(f"--d is required for kind {args.kind}")
    # the loader's builders, so a written file loads back as its build
    build, names = BUILDERS[args.kind]
    inputs = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    rep = build(args.p, args.p if args.d is None else args.d, **inputs)
    _emit({"manifest": _manifest("build", args), "rep": rep.to_json()}, args)
    return 0


def cmd_check(args) -> int:
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    try:
        rep = _load_rep(args.rep)
        record("frobenius-consistency", True,
               "the file is its build from (p, d, params); x^p matches the structural action")
    except InconsistentFrobenius as exc:
        record("frobenius-consistency", False, str(exc))
        _emit(
            {"manifest": _manifest("check", args), "ok": False, "checks": checks},
            args,
        )
        return INCONSISTENT

    record("modulus-irreducible", is_irreducible(rep.A), f"deg {rep.A.degree}")

    rng = random.Random(args.seed)
    ring = rep.ring
    ok_pow = True
    for _ in range(args.samples):
        z = ring.random_el(rng)
        if z.is_zero():
            continue
        if apply_frobenius(rep, z) != ring.pow(z, rep.p):
            ok_pow = False
            break
    record("frobenius-sample", ok_pow, f"{args.samples} random elements")

    ok_deg = True
    for _ in range(args.samples):
        z = ring.random_el(rng)
        if z.is_zero():
            continue
        if degree(rep, z) != degree(rep, apply_frobenius(rep, z)):
            ok_deg = False
            break
    record("degree-invariance", ok_deg, f"{args.samples} random elements")

    report = {
        "manifest": _manifest("check", args),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    _emit(report, args)
    return 0 if report["ok"] else INCONSISTENT


def cmd_orbits(args) -> int:
    rep = _load_rep(args.rep)
    fb = build_factor_base(rep, args.kappa)
    table = []
    for i, orbit in enumerate(fb.orbits):
        table.append(
            {
                "column": i,
                "anchor": orbit.anchor.to_list(),
                "size": orbit.size,
                "full_size": orbit.full_size,
                "kernel": orbit.is_kernel,
            }
        )
    doc = {
        "manifest": _manifest("orbits", args),
        "kind": rep.kind,
        "columns": fb.ncols,
        "orbits": table,
    }
    _emit(doc, args)
    return 0


def cmd_dlog(args) -> int:
    rep = _load_rep(args.rep)
    target = None
    if args.target:
        # parse and reject a bad target before paying for the table
        target = rep.ring.el([int(c) for c in args.target.split(",")])
        if target.is_zero():
            raise ValueError("zero has no logarithm")
    fb, g, relations, table = compute_logs(rep, args.kappa, seed=args.seed)
    doc = {
        "manifest": _manifest("dlog", args),
        "kind": rep.kind,
        "group_order": _num(rep.order()),
        "generator": g.to_list(),
        "columns": fb.ncols,
        "relations": len(relations),
        "table": table.to_json(),
    }
    if target is not None:
        lam = individual_log(rep, fb, table, target, seed=args.seed)
        doc["target"] = target.to_list()
        doc["log"] = _num(lam)
        doc["verified"] = rep.ring.pow(rep.ring.el(g), lam) == target
    _emit(doc, args)
    return 0


def cmd_jl_sieve(args) -> int:
    setup = jl_setup(args.p, args.df, args.dg, args.d, seed=args.seed)
    manifest = _manifest("jl-sieve", args)
    manifest["setup"] = setup.to_json()
    try:
        rels = jl_sieve(
            setup,
            args.ux,
            args.uy,
            args.kappa,
            args.budget,
            seed=args.seed,
            target=args.target,
        )
    except SieveTimeout as exc:
        _emit_lines([manifest] + [r.to_json() for r in exc.partial], args)
        _error("SieveTimeout", str(exc), {"found": len(exc.partial)})
        return EXHAUSTED
    _emit_lines([manifest] + [r.to_json() for r in rels], args)
    return 0


def _parse_class(text: str, t: int, p: int) -> NSClassEE:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("class must be d1,d2,m,n")
    d1, d2, m, n = parts
    return NSClassEE(d1, d2, EndomorphismElement(m, n, t, p))


def _report_fixed_places(restriction, kappa: int) -> None:
    """One stderr line per side with the degrees of the places that every
    section's norm carries, and a warning when one of them exceeds kappa:
    then no section is smooth on that side, whatever the budget."""
    for side in ("a", "b"):
        degrees = [q.degree for q, _ in restriction.fixed[side][1]]
        sys.stderr.write(
            f"ee-sieve: side {side}: every norm has fixed places of degree {degrees}\n"
        )
        if any(k > kappa for k in degrees):
            sys.stderr.write(
                f"ee-sieve: warning: side {side} has a fixed place of degree "
                f"{max(degrees)} > kappa = {kappa}, so no section can be smooth\n"
            )


def _report_projective_classes(rels, p: int) -> None:
    """One stderr line: how many relations, and in how many projective
    classes of sections (a relation and its scalar multiples are one)."""
    count = len({projective_class(rel.coeffs, p) for rel in rels})
    sys.stderr.write(f"ee-sieve: {len(rels)} relations in {count} projective classes\n")


def cmd_ee_sieve(args) -> int:
    rep = _load_rep(args.rep)
    if rep.kind != ELLIPTIC:
        raise ValueError(f"ee-sieve needs an elliptic residue build, got {rep.kind}")
    # the loaded rep is build_elliptic_residue(p, d), the model ee_setup builds
    setup = ee_setup(rep.p, rep.d)
    cls = _parse_class(args.cls, setup.curve.trace(), rep.p)
    manifest = _manifest("ee-sieve", args)
    manifest["setup"] = setup.to_json()
    manifest["class"] = {
        "d1": cls.d1,
        "d2": cls.d2,
        "xi": [cls.xi.m, cls.xi.n],
    }
    restriction = EERestriction(setup, linear_system_ee(setup, cls), args.kappa)
    _report_fixed_places(restriction, args.kappa)
    try:
        rels = ee_sieve(
            setup,
            cls,
            args.kappa,
            args.budget,
            seed=args.seed,
            target=args.target,
            restriction=restriction,
        )
    except SieveTimeout as exc:
        _report_projective_classes(exc.partial, rep.p)
        _emit_lines([manifest] + [r.to_json() for r in exc.partial], args)
        _error("SieveTimeout", str(exc), {"found": len(exc.partial)})
        return EXHAUSTED
    _report_projective_classes(rels, rep.p)
    _emit_lines([manifest] + [r.to_json() for r in rels], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobsieve",
        description="Structured Frobenius models and smoothness sieves "
        "for small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a field representation")
    b.add_argument("--kind", required=True,
                   choices=["kummer", "artin-schreier", "torus", "elliptic-residue"])
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--d", type=int)
    b.add_argument("--r", type=int, help="kummer radicand override")
    b.add_argument("--u-r", dest="u_r", type=int, help="torus base point override")
    b.add_argument("--a", type=int, help="artin-schreier constant")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="verify a stored representation")
    c.add_argument("rep")
    c.add_argument("--samples", type=int, default=12)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_check)

    o = sub.add_parser("orbits", help="factor-base orbit table")
    o.add_argument("rep")
    o.add_argument("--kappa", type=int, required=True)
    o.add_argument("--out")
    o.set_defaults(func=cmd_orbits)

    dl = sub.add_parser("dlog", help="compute a logarithm table")
    dl.add_argument("rep")
    dl.add_argument("--kappa", type=int, required=True)
    dl.add_argument("--target", help="residue element as comma-separated coefficients")
    dl.add_argument("--seed", type=int, default=0)
    dl.add_argument("--out")
    dl.set_defaults(func=cmd_dlog)

    jl = sub.add_parser("jl-sieve", help="sieve the rational correspondence")
    jl.add_argument("--p", type=int, required=True)
    jl.add_argument("--df", type=int, required=True)
    jl.add_argument("--dg", type=int, required=True)
    jl.add_argument("--d", type=int, required=True)
    jl.add_argument("--ux", type=int, required=True)
    jl.add_argument("--uy", type=int, required=True)
    jl.add_argument("--kappa", type=int, required=True)
    jl.add_argument("--budget", type=int, default=1000)
    jl.add_argument("--seed", type=int, default=0)
    jl.add_argument("--target", type=int)
    jl.add_argument("--out")
    jl.set_defaults(func=cmd_jl_sieve)

    ee = sub.add_parser("ee-sieve", help="sieve the elliptic square")
    ee.add_argument("--rep", required=True)
    ee.add_argument("--class", dest="cls", required=True,
                    help="surface class as d1,d2,m,n")
    ee.add_argument("--kappa", type=int, default=4)
    ee.add_argument("--budget", type=int, default=200)
    ee.add_argument("--seed", type=int, default=0)
    ee.add_argument("--target", type=int)
    ee.add_argument("--out")
    ee.set_defaults(func=cmd_ee_sieve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DegreeNotCompatible, InvalidPoint, InsufficientPoints,
            NotFound) as exc:
        _error(type(exc).__name__, str(exc))
        return USAGE_ERROR
    except InconsistentFrobenius as exc:
        _error("InconsistentFrobenius", str(exc))
        return INCONSISTENT
    except (SieveTimeout, RankDeficient, SearchFailed) as exc:
        _error(type(exc).__name__, str(exc))
        return EXHAUSTED
    except FileNotFoundError as exc:
        _error("FileNotFound", str(exc))
        return USAGE_ERROR
    except FrobsieveError as exc:
        _error(type(exc).__name__, str(exc))
        return INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
