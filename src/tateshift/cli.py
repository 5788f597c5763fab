"""Command-line front end: JSON jobs in, JSON reports out.

Each command takes its parameters as inline JSON or ``--input FILE``, plus
one flag per scalar or int-list field of its schema in ``SCHEMAS``; a flag
overrides the JSON field.  Exit codes: 0 success, 2 validation error, 3
computation error.  Output is deterministic (sorted keys, decimal-string
coefficients, fixed basis order).  Batch mode runs newline-delimited JSON
jobs independently and exits with the maximum of the individual codes.
A law's series truncation degree follows from the job: only ``fgl``, whose
report prints the series, takes a ``cap``.  Consecutive ``fgl``, ``bgroup``
and ``tate`` jobs with the same law parameters (law, p, n, modulus_power and
the resolved cap) share one law, and consecutive ``bgroup`` and ``tate`` jobs
on one group A under it share one classifying ring with its Euler classes;
one law and one ring are held at a time, a job that builds no law releases
both, and reports are the same bytes as when each job runs alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import ring_core, ring_linalg, tate_blueshift, zmod
from .classifying import (
    AbelianPGroup,
    SubgroupSpec,
    build_classifying_ring,
    required_cap,
)
from .tate_blueshift import (
    GRADING_NOTE,
    blueshift_bounds,
    build_law,
    nonabelian_lower_bound,
    tate_ring,
    tate_ring_exact,
)

COMMANDS = ("fgl", "bgroup", "roots", "tate", "blueshift", "vanish-cert")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3


class ValidationError(Exception):
    pass


# -- parameter schemas ------------------------------------------------------------
#
# A type is (name, check, flag): check validates the JSON value, and flag holds
# the argparse keywords of the field's command-line flag, or None for a field
# that only JSON can give.


def _csv_ints(raw: str):
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError as exc:
        raise ValidationError(f"expected comma separated integers: {raw!r}") from exc


_INT = ("int", lambda v: isinstance(v, int) and not isinstance(v, bool),
        {"type": int})
_PRIME = ("prime", lambda v: _INT[1](v) and zmod.is_prime(v), _INT[2])
_POSITIVE = ("int >= 1", lambda v: _INT[1](v) and v >= 1, _INT[2])
_NATURAL = ("int >= 0", lambda v: _INT[1](v) and v >= 0, _INT[2])
_MODULUS = ("int >= 2", lambda v: _INT[1](v) and v >= 2, _INT[2])
_BOOL = ("bool", lambda v: isinstance(v, bool), {"action": "store_true"})
_LAW = ("multiplicative or honda", lambda v: v in ("multiplicative", "honda"), {})
_INTS = ("list of ints", lambda v: isinstance(v, list)
         and all(isinstance(x, int) and not isinstance(x, bool) for x in v),
         {"type": _csv_ints, "metavar": "K,K,..."})
_EXPONENTS = ("nonempty list of ints >= 1",
              lambda v: _INTS[1](v) and v and all(x >= 1 for x in v), _INTS[2])
_SUB_EXPONENTS = ("list of ints >= 0",
                  lambda v: _INTS[1](v) and all(x >= 0 for x in v), _INTS[2])
_LIST = ("list", lambda v: isinstance(v, list), None)
_DICT = ("object", lambda v: isinstance(v, dict), None)

SCHEMAS = {
    "fgl": {
        "kind": (_LAW, True),
        "p": (_PRIME, True),
        "n": (_POSITIVE, False),
        "modulus_power": (_POSITIVE, False),
        "cap": (_INT, False),
        "m": (_INT, False),
        "j": (_NATURAL, False),
    },
    "bgroup": {
        "p": (_PRIME, True),
        "exponents": (_EXPONENTS, True),
        "fgl": (_LAW, True),
        "n": (_POSITIVE, False),
        "modulus_power": (_POSITIVE, False),
        "euler_classes": (_BOOL, False),
    },
    "roots": {
        "modulus": (_MODULUS, False),
        "ring": (_DICT, False),
        "f": (("nonempty list", lambda v: _LIST[1](v) and v, None), True),
        "tuple": (_LIST, True),
        "explain": (_BOOL, False),
    },
    "tate": {
        "p": (_PRIME, True),
        "A": (_EXPONENTS, True),
        "C": (_SUB_EXPONENTS, True),
        "fgl": (_LAW, False),
        "n": (_POSITIVE, False),
        "modulus_power": (_POSITIVE, False),
        "max_cert_len": (_POSITIVE, False),
        "exact": (_BOOL, False),
        "explain": (_BOOL, False),
    },
    "blueshift": {
        "p": (_PRIME, True),
        "A": (_EXPONENTS, True),
        "C": (_SUB_EXPONENTS, True),
        "nonabelian": (_BOOL, False),
        "explain": (_BOOL, False),
    },
    "vanish-cert": {
        "ring": (_DICT, True),
        "gens": (_LIST, True),
        "max_len": (_POSITIVE, True),
    },
}


def validate_params(command: str, params: dict) -> dict:
    if command not in SCHEMAS:
        raise ValidationError(f"unknown command {command!r}")
    if not isinstance(params, dict):
        raise ValidationError("params must be a JSON object")
    schema = SCHEMAS[command]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ValidationError(f"unknown fields for {command}: {unknown}")
    for field, ((type_name, check, _), required) in schema.items():
        if field not in params:
            if required:
                raise ValidationError(f"{command} requires field {field!r}")
            continue
        if not check(params[field]):
            raise ValidationError(f"field {field!r} must be {type_name}")
    if "C" in params and (len(params["C"]) != len(params["A"]) or any(
            j > i for j, i in zip(params["C"], params["A"]))):
        raise ValidationError("field 'C' must give one C_k <= A_k for each A_k")
    # a law parameter that the job's law would ignore is refused, not dropped
    law = _law_kind(params)
    if params.get("n", 1) != 1 and law != "honda":
        raise ValidationError("field 'n' must be 1 unless the law is honda")
    if params.get("modulus_power", 1) != 1 and params.get("exact"):
        raise ValidationError("field 'modulus_power' must be 1 in exact mode")
    if params.get("modulus_power", 1) != 1 and law != "multiplicative":
        raise ValidationError(
            "field 'modulus_power' must be 1 unless the law is multiplicative")
    # neither the exact tate ring nor the nonabelian bound has a trace to print
    if params.get("explain") and params.get("exact"):
        raise ValidationError("field 'explain' must be false in exact mode")
    if params.get("explain") and params.get("nonabelian"):
        raise ValidationError("field 'explain' must be false with 'nonabelian'")
    return params


def _law_kind(params: dict) -> str:
    """The law a job builds: its ``kind`` or ``fgl`` field if it has one,
    else multiplicative in exact mode and honda otherwise."""
    return params.get("kind") or params.get(
        "fgl", "multiplicative" if params.get("exact") else "honda")


def _decode(decode, *args):
    """decode(*args) on a ring or elements the job gave: data that does not
    decode (a missing key, a non-integer, a non-monic relation, a vector of
    the wrong length) is the job's fault."""
    try:
        return decode(*args)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc


# -- command runners -----------------------------------------------------------------


def run_fgl(params: dict) -> dict:
    """build a law; emit series and Weierstrass data"""
    law = _memo(params).law
    j = params.get("j")
    report = {"law": law.describe(), "F": law.F.to_json_dict()}
    prep = law.weierstrass(1)
    report["weierstrass"] = {
        "degree": prep.degree,
        "poly": [str(c) for c in prep.poly],
        "unit": prep.unit.to_json_dict(),
    }
    if "m" in params:
        report["m_series"] = {
            "m": params["m"],
            "series": law.m_series(params["m"]).to_json_dict(),
        }
    if j is not None:
        prep_j = law.weierstrass(j)
        report["pj_series"] = {
            "j": j,
            "series": law.pj_series(j).to_json_dict(),
            "weierstrass": {
                "degree": prep_j.degree,
                "poly": [str(c) for c in prep_j.poly],
            },
        }
    return report


# The last law built, keyed by what determines it, with the last classifying
# ring built from it: at most one entry, so consecutive jobs under one law
# share it (with its m-series), consecutive bgroup and tate jobs on one group
# share its ring (with its Euler classes), and a job under another law
# releases both before building its own.  A job that builds no law (roots,
# blueshift, vanish-cert and tate --exact) releases them too, so a batch
# does not carry a large ring through its later jobs.  A law and a ring are
# immutable and their caches hold pure functions of the key, so sharing
# changes no report.
_last_law: dict = {}


class _Memo:
    """A law, and the last classifying ring built from it (None before one)."""

    __slots__ = ("law", "ring", "__weakref__")

    def __init__(self, law):
        self.law = law
        self.ring = None


def _memo(params: dict, exponents=None) -> _Memo:
    """The entry of the job's law, truncated for ``fgl`` at its ``cap`` (by
    default just past the degree its report prints) and for a group A where
    the classifying ring of A needs it; the last entry if its key agrees."""
    p = params["p"]
    # by validate_params, n is 1 off the honda law and K off the multiplicative
    n, K = params.get("n", 1), params.get("modulus_power", 1)
    if exponents is None:
        # the series must reach degree p^(n * j), the Weierstrass degree of
        # [p^j]; j = 0 still prints [p] of degree p^n
        least = p ** (n * max(params.get("j", 0), 1))
        cap = params.get("cap", least + p)
        if cap < least:
            raise ValidationError(f"cap must be >= {least}")
    else:
        cap = required_cap(p, n, K, exponents)
    kind = _law_kind(params)
    key = (kind, p, n, K, cap)
    memo = _last_law.get(key)
    if memo is None:
        _last_law.clear()  # release the old law and ring before building
        memo = _last_law[key] = _Memo(
            build_law(kind, p, n=n, modulus_power=K, cap=cap))
    return memo


def _ring(params: dict, group: AbelianPGroup):
    """The classifying ring of group under the job's law; the last ring
    built from that law if it is the ring of the same group."""
    memo = _memo(params, group.exponents)
    if memo.ring is None or memo.ring.group.exponents != group.exponents:
        memo.ring = None  # release the old ring before building the new one
        memo.ring = build_classifying_ring(memo.law, group)
    return memo.ring


def run_bgroup(params: dict) -> dict:
    """classifying ring of an abelian p-group"""
    group = AbelianPGroup(params["p"], params["exponents"])
    cr = _ring(params, group)
    report = {
        "law": cr.law.describe(),
        "group": {"p": group.p, "exponents": list(group.exponents)},
        "presentation": ring_core.algebra_to_json(cr.algebra),
        "rank": cr.algebra.rank,
        "grading_note": GRADING_NOTE,
    }
    if params.get("euler_classes"):
        report["euler_classes"] = [
            {"element": list(ec.element),
             "value": ring_core.element_to_json(ec.value)}
            for ec in cr.euler_classes(group.elements())
        ]
    return report


def run_roots(params: dict) -> dict:
    """root-coefficient relations for a tuple"""
    _last_law.clear()
    if ("modulus" in params) == ("ring" in params):
        raise ValidationError("roots needs exactly one of 'modulus' or 'ring'")
    if "modulus" in params:
        alg = ring_core.FiniteAlgebra.scalar_ring(
            ring_core.BaseModulus(params["modulus"])
        )
    else:
        alg = _decode(ring_core.algebra_from_json, params["ring"])

    def parse_elems(values):
        return [alg.from_int(int(v)) if isinstance(v, (int, str))
                else ring_core.element_from_json(alg, v) for v in values]

    f_coeffs = _decode(parse_elems, params["f"])
    elements = _decode(parse_elems, params["tuple"])
    ok, pair = ring_linalg.is_ntuple(elements, f_coeffs)
    if not ok:
        i, j = pair
        reason = (
            f"element {i} is not a root" if i == j
            else f"difference of elements {i} and {j} is a zero divisor"
        )
        return {"tuple_valid": False, "offending_pair": [i, j], "reason": reason}
    tup = ring_linalg.NTuple(elements, f_coeffs=f_coeffs)
    result = ring_linalg.roots_to_coeffs(f_coeffs, tup)
    report = {
        "tuple_valid": True,
        "case": result.case,
        "recovered": [ring_core.element_to_json(c) for c in result.recovered],
    }
    if result.case == "Cramer":
        report["witnesses"] = {
            "det_vandermonde": ring_core.element_to_json(
                result.witnesses["det_vandermonde"]
            ),
            "column_dets": [
                ring_core.element_to_json(d)
                for d in result.witnesses["column_dets"]
            ],
        }
        report["index_convention"] = ring_linalg.INDEX_CONVENTION_NOTE
    if result.case == "Vieta":
        report["factorization"] = [ring_core.element_to_json(c)
                                   for c in result.factorization]
    if params.get("explain"):
        report["elimination_trace"] = [
            [[str(e.coords[0]) if e.parent.rank == 1 else
              ring_core.element_to_json(e) for e in row] for row in mat]
            for mat in ring_linalg.gaussian_nzd_solve(tup)
        ]
    return report


def run_tate(params: dict) -> dict:
    """generalized Tate ring computation"""
    p = params["p"]
    group = AbelianPGroup(p, params["A"])
    sub = SubgroupSpec(params["C"])
    sub.validate_in(group)
    if params.get("exact"):
        if _law_kind(params) != "multiplicative":
            raise ValidationError("exact mode supports the multiplicative law")
        _last_law.clear()
        result = tate_ring_exact(
            p, params["A"], params["C"],
            max_cert_len=params.get("max_cert_len", 8),
        )
        report = result.to_dict()
    else:
        cr = _ring(params, group)
        result = tate_ring(cr, sub, max_cert_len=params.get("max_cert_len"))
        report = result.to_dict()
        report["law"] = cr.law.describe()
        if params.get("explain"):
            # step i is s^(2^i), printed as the Howell rows of its kernel; a
            # ZERO chain ends in None, the whole module of rank |A|^n; a
            # trivial C inverts nothing, has no witness and prints no step
            rank = cr.algebra.rank
            report["witness"]["saturation_chain"] = [
                [[str(x) for x in row]
                 for row in (ring_core.identity_rows(rank) if step is None else
                             (e.coords for e in ring_core.annihilator(step)))]
                for step in result.witness.get("saturation_chain", [])
            ]
    return report


def run_blueshift(params: dict) -> dict:
    """blue-shift number bounds"""
    _last_law.clear()
    if params.get("nonabelian"):
        return nonabelian_lower_bound(params["p"], params["A"], params["C"])
    report = blueshift_bounds(params["p"], params["A"], params["C"])
    return report.to_dict(explain=params.get("explain", False))


def run_vanish_cert(params: dict) -> dict:
    """zero-product certificate search"""
    _last_law.clear()
    ring_data = params["ring"]
    if ring_data.get("type") == "exact":
        ring = _decode(ring_core.exact_ring_from_json, ring_data)
        gens = _decode(lambda: [ring_core.poly_element_from_json(ring, g)
                                for g in params["gens"]])
        budget = tate_blueshift.EXACT_SEARCH_BUDGET
    else:
        alg = _decode(ring_core.algebra_from_json, ring_data)
        gens = _decode(lambda: [ring_core.element_from_json(alg, g)
                                for g in params["gens"]])
        budget = tate_blueshift.CERT_SEARCH_BUDGET
    cert = ring_core.zero_product_certificate(gens, params["max_len"], budget=budget)
    if isinstance(cert, ring_core.CertificateNotFound):
        report = {"found": False, "max_len": cert.max_len}
        if cert.budget is not None:
            report["search_budget"] = cert.budget
        return report
    product = gens[cert[0]]
    for idx in cert[1:]:
        product = product * gens[idx]
    return {
        "found": True,
        "certificate": cert,
        "length": len(cert),
        "product_is_zero": product.is_zero(),
    }


RUNNERS = {
    "fgl": run_fgl,
    "bgroup": run_bgroup,
    "roots": run_roots,
    "tate": run_tate,
    "blueshift": run_blueshift,
    "vanish-cert": run_vanish_cert,
}


def run_job(command: str, params: dict):
    """(exit_code, report) with every error mapped to a stable code.

    Exit 2 (validation) is reported only for a ``ValidationError``, raised
    by ``validate_params`` or a runner's input check; any other exception is
    exit 3 (computation), named by its type and by the module that defines
    it, or for a type from outside tateshift the module that raised it.
    """
    try:
        params = validate_params(command, params)
        report = RUNNERS[command](params)
    except ValidationError as exc:
        return EXIT_VALIDATION, _invalid(exc)
    except Exception as exc:  # a domain error, or a fault of the program
        return EXIT_COMPUTE, {
            "error": {
                "code": "computation",
                "module": _error_module(exc),
                "name": type(exc).__name__,
                "message": str(exc),
            }
        }
    return EXIT_OK, report


def _invalid(exc: ValidationError) -> dict:
    return {"error": {"code": "validation", "message": str(exc)}}


def _error_module(exc: BaseException) -> str:
    """The tateshift module that defines exc's type, as ``fgl``; else the
    innermost tateshift module in exc's traceback."""
    frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)]
    names = [type(exc).__module__] + [
        frame.f_globals.get("__name__", "") for frame in reversed(frames)]
    return next((name.rpartition(".")[2] for name in names
                 if name.startswith("tateshift.")), "cli")


def run_batch(lines) -> tuple[int, dict]:
    """Independent newline-delimited jobs; reports in input order."""
    jobs = []
    worst = EXIT_OK
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        entry = {"line": lineno}
        try:
            spec = json.loads(line)
            if not isinstance(spec, dict):
                raise ValidationError("job spec must be a JSON object")
            extra = sorted(set(spec) - {"command", "params", "out"})
            if extra:
                raise ValidationError(f"unknown job fields: {extra}")
            command = spec.get("command")
            if command not in COMMANDS:
                raise ValidationError(f"unknown command {command!r}")
            out_path = spec.get("out")
            if out_path and not isinstance(out_path, str):
                raise ValidationError("job field 'out' must be a path")
            code, report = run_job(command, spec.get("params", {}))
            entry.update({"command": command, "exit_code": code, "report": report})
            if out_path and code == EXIT_OK:
                try:
                    with open(out_path, "w") as fh:
                        fh.write(dumps(report))
                        fh.write("\n")
                except OSError as exc:
                    raise ValidationError(f"cannot write 'out': {exc}") from exc
        except (json.JSONDecodeError, RecursionError, ValidationError) as exc:
            code = EXIT_VALIDATION
            entry.update({"exit_code": code, "report": _invalid(exc)})
        worst = max(worst, code)
        jobs.append(entry)
    return worst, {"jobs": jobs}


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ": "))


# -- argument parsing ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per schema: a job as inline JSON or --input, and the
    flag --<field> (underscores as dashes) for each field whose type has one."""
    parser = argparse.ArgumentParser(
        prog="tateshift",
        description="exact formal-group-law arithmetic, Tate vanishing "
                    "certificates and blue-shift bounds",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        # a flag left out is no attribute, so it never overrides the JSON
        sub = subs.add_parser(command, help=RUNNERS[command].__doc__,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("job", nargs="?", default=None,
                         help="inline JSON parameters")
        sub.add_argument("--input", default=None, help="file with JSON parameters")
        for field, ((type_name, _, flag), _) in schema.items():
            if flag is not None:
                sub.add_argument("--" + field.replace("_", "-"), dest=field,
                                 help=type_name, **flag)
    p_batch = subs.add_parser("batch", help="run newline-delimited JSON jobs")
    p_batch.add_argument("file")
    return parser


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(str(exc)) from exc


def params_from_args(args) -> dict:
    """The job's JSON parameters, with each flag given on top."""
    flags = vars(args).copy()
    job, path = flags.pop("job"), flags.pop("input")
    del flags["command"]
    if job and path:
        raise ValidationError("give inline JSON or --input, not both")
    if path:
        raw = _read(path)
    elif job:
        raw = job
    else:
        return flags
    try:
        params = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON parameters: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("JSON parameters must be an object")
    return {**params, **flags}


def main(argv=None) -> int:
    try:
        # a comma separated flag that does not parse raises here
        args = build_parser().parse_args(argv)
        if args.command == "batch":
            code, report = run_batch(_read(args.file).split("\n"))
        else:
            code, report = run_job(args.command, params_from_args(args))
    except ValidationError as exc:
        code, report = EXIT_VALIDATION, _invalid(exc)
    print(dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
