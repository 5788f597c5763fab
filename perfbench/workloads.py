"""Workload definitions for the tateshift benchmark.

A workload is a fixed list of jobs plus draws made from the benchmark's seed.
Every job enters tateshift through its public API: ``cli.run_job`` for
CLI-shaped jobs and ``tateshift.*`` module functions for library-only paths.
Calls go through module attributes (``classifying.certify_root_difference``,
not a name imported here) so that the spans in ``spans.py`` see them.

A job returns ``(exit_code, report_text)``.  Its check looks only at the
parsed report and replays witnesses in rings the checker builds itself, so a
job that keeps its contract passes even when saturation chains or
certificate lengths change.

Frontier jobs do not finish today.  Each runs in its own child process with
a deadline set far below today's run time and far above the time it needs
once the matching ROADMAP item lands, so it flips only on a real speed-up.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from tateshift import classifying, cli, ring_core, ring_linalg, tate_blueshift

# A second seed for confirming a claimed gain; never use it while tuning.
HELD_OUT_SEED = 7919


@dataclass
class Job:
    id: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[dict], str | None]  # failure reason, or None
    deadline_s: float | None = None  # set for frontier jobs only


@dataclass
class Workload:
    why: str
    build: Callable  # (rng, checker) -> list[Job]
    min_passes: int  # passes run even past --seconds; fixes the tail percentile


def _report(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cli_job(job_id, command, params, check, deadline_s=None) -> Job:
    def run():
        code, report = cli.run_job(command, params)
        return code, cli.dumps(report)

    return Job(job_id, run, lambda report: check(params, report), deadline_s)


def _elements(p, exponents):
    return [list(w) for w in itertools.product(*(range(p**i) for i in exponents))]


def _inverted(p, A, C):
    """A - im phi(A/C): the elements with some w_k not divisible by p^(j_k)."""
    return [w for w in _elements(p, A)
            if any(wk % p**jk for wk, jk in zip(w, C))]


def _law_params(kind, n, K):
    if kind == "honda":
        return {"fgl": "honda", "n": n}
    return {"fgl": "multiplicative", "modulus_power": K}


class Checker:
    """Output checks, with the fresh rings they replay witnesses in."""

    def __init__(self):
        self._rings = {}

    def _cached(self, key, build):
        if key not in self._rings:
            self._rings[key] = build()
        return self._rings[key]

    def classifying_ring(self, kind, p, n, K, A):
        def build():
            law = tate_blueshift.build_law(kind, p, n=n, modulus_power=K,
                                           exponents=list(A))
            return classifying.build_classifying_ring(
                law, classifying.AbelianPGroup(p, A))
        return self._cached(("cr", kind, p, n, K, tuple(A)), build)

    def exact_ring(self, p, A):
        return self._cached(("exact", p, tuple(A)),
                            lambda: tate_blueshift.multiplicative_exact_ring(p, A))

    # -- tate ----------------------------------------------------------------

    def tate(self, params, report, inconclusive_ok=False):
        p, A, C = params["p"], params["A"], params["C"]
        inverted = _inverted(p, A, C)
        if report["inverted_classes"] != inverted:
            return "inverted classes differ from A - im phi(A/C)"
        wit = report["witness"]
        if params.get("exact"):
            return self._tate_exact(params, report, inverted, inconclusive_ok)
        kind = params.get("fgl", "honda")
        cr = self.classifying_ring(kind, p, params.get("n", 1),
                                   params.get("modulus_power", 1), A)
        alg = cr.algebra
        if alg.local_tower_prime() is None:
            return "classifying ring is not a local tower; status not pinned"
        if not inverted:
            if report["status"] != "NONZERO":
                return f"trivial C gave {report['status']}, expected NONZERO"
            if report["quotient"] != {"base": str(alg.base.n), "rank": alg.rank}:
                return "trivial C must return the classifying ring unchanged"
            return None
        if report["status"] != "ZERO":
            return f"nontrivial C on a local tower gave {report['status']}"
        if wit.get("saturation_chain_length", 0) < 1:
            return "ZERO without a saturation chain"
        if "certificate" not in wit:
            return "ZERO without a zero-product certificate"
        return self._replay(wit["certificate"], inverted,
                            lambda w: cr.euler_class(w).value, alg.one())

    def _tate_exact(self, params, report, inverted, inconclusive_ok):
        wit = report["witness"]
        limit = params.get("max_cert_len", 8)
        status = report["status"]
        if status == "INCONCLUSIVE":
            if not inconclusive_ok:
                return "INCONCLUSIVE where a certificate exists within the budget"
            if wit.get("not_found_max_len") != limit:
                return "INCONCLUSIVE without the exhausted budget recorded"
            return None
        if status != "ZERO":
            return f"exact mode gave {status} for a nontrivial C"
        cert = wit["certificate"]
        if cert["length"] > limit:
            return f"certificate length {cert['length']} exceeds {limit}"
        ring = self.exact_ring(params["p"], params["A"])
        return self._replay(
            cert, inverted,
            lambda w: tate_blueshift.multiplicative_euler_class_exact(ring, w),
            ring.one())

    @staticmethod
    def _replay(cert, inverted, euler, one):
        gens = cert["generators"]
        if cert["length"] != len(gens) or not gens:
            return "certificate length disagrees with its generators"
        if [inverted[i] for i in cert["generator_indices"]] != gens:
            return "certificate indices do not name its generators"
        product = one
        for w in gens:
            product = product * euler(tuple(w))
        if not product.is_zero():
            return "certificate product is nonzero in a fresh ring"
        return None

    # -- bgroup --------------------------------------------------------------

    def bgroup(self, params, report):
        p, A = params["p"], params["exponents"]
        height = params.get("n", 1) if params["fgl"] == "honda" else 1
        expected = p ** (height * sum(A))
        if report["rank"] != expected:
            return f"rank {report['rank']} != p^(n*sum i) = {expected}"
        fresh = ring_core.algebra_from_json(report["presentation"])
        if fresh.rank != expected:
            return "presentation does not rebuild to the reported rank"
        classes = report["euler_classes"]
        if [c["element"] for c in classes] != _elements(p, A):
            return "euler classes are not listed once per element of A"
        if any(c != "0" for c in classes[0]["value"]):
            return "euler class of 0 is nonzero"
        for k in range(len(A)):
            unit = [1 if t == k else 0 for t in range(len(A))]
            value = next(c["value"] for c in classes if c["element"] == unit)
            if [int(c) for c in value] != list(fresh.gen(k).coords):
                return f"euler class of generator {k} is not x{k + 1}"
        return None

    # -- roots ---------------------------------------------------------------

    @staticmethod
    def roots(params, report):
        if not report.get("tuple_valid"):
            return "valid root tuple rejected"
        modulus = params["modulus"] if "modulus" in params else int(
            params["ring"]["base"])
        f = [int(c) % modulus for c in params["f"]]
        n, m = len(params["tuple"]), len(f) - 1
        case = "Vieta" if n == m else "Cramer"
        if report["case"] != case:
            return f"case {report['case']}, expected {case}"
        recovered = report["recovered"]
        if len(recovered) != (m if case == "Vieta" else n):
            return "wrong number of recovered coefficients"
        for i, coords in enumerate(recovered):
            if int(coords[0]) != f[i] or any(c != "0" for c in coords[1:]):
                return f"recovered coefficient {i} differs from f"
        if case == "Vieta":
            if [int(c[0]) for c in report["factorization"]] != f:
                return "factorization does not expand to f"
        return None

    # -- library jobs ----------------------------------------------------------

    def pair_certs(self, params, report):
        p, n, A = params["p"], params["n"], params["A"]
        cr = self.classifying_ring("honda", p, n, 1, A)
        alg = cr.algebra
        orders = [p**i for i in A]
        if len(report["pairs"]) != len(params["pairs"]):
            return "missing pair certificates"
        for (u, w), got in zip(params["pairs"], report["pairs"]):
            target = [(a - b) % o for a, b, o in zip(u, w, orders)]
            if got["difference_element"] != target:
                return f"difference element of {u}, {w} is wrong"
            unit = ring_core.element_from_json(alg, got["unit"])
            s = cr.euler_class(tuple(target)).value
            d = cr.euler_class(tuple(u)).value - cr.euler_class(tuple(w)).value
            if not (s * unit - d).is_zero():
                return f"unit cofactor for {u}, {w} does not replay"
            if not ring_core.is_unit(unit)[0]:
                return f"cofactor for {u}, {w} is not a unit"
        return None

    def localized_tuple(self, params, report):
        if report["verdict"] != ring_linalg.VanishingVerdict.MUST_BE_ZERO:
            return f"vanishing verdict {report['verdict']}"
        if params["kind"] == "morava":
            cr = self.classifying_ring("honda", params["p"], params["n"], 1, [1])
            elem = lambda coords: ring_core.element_from_json(cr.algebra, coords)
            is_unit = lambda u: ring_core.is_unit(u)[0]
        else:
            ring = self.exact_ring(params["p"], [1, 1])
            elem = lambda coords: ring_core.poly_element_from_json(ring, coords)
            is_unit = ring.is_unit
        gens = [elem(g) for g in report["gens"]]
        roots = [elem(r) for r in report["roots"]]
        f = [elem(c) for c in report["f"]]

        def product(word):
            out = gens[word[0]]
            for idx in word[1:]:
                out = out * gens[idx]
            return out

        pairs = {(i, j): (word, unit) for i, j, word, unit in report["pair_witnesses"]}
        for i, j in itertools.combinations(range(len(roots)), 2):
            if (i, j) not in pairs:
                return f"no witness for pair {i}, {j}"
            word, unit = pairs[(i, j)]
            unit = elem(unit)
            if not is_unit(unit) or not (unit * product(word) - (roots[i] - roots[j])).is_zero():
                return f"pair witness {i}, {j} does not replay"
        kills = dict((i, word) for i, word in report["root_witnesses"])
        for i, r in enumerate(roots):
            value = f[-1]
            for c in reversed(f[:-1]):
                value = value * r + c
            if i not in kills:
                return f"no witness that f(root {i}) dies"
            if kills[i] and not (product(kills[i]) * value).is_zero():
                return f"root witness {i} does not replay"
            if not kills[i] and not value.is_zero():
                return f"root {i} is not a root of f"
        return None

    @staticmethod
    def localize(params, report):
        if report["status"] != "NONZERO":
            return f"localization gave {report['status']}, expected NONZERO"
        if (report["base"], report["rank"]) != (params["survivor"], params["rank"]):
            return "quotient is not the surviving CRT component"
        table = {(i, j): tuple(tuple(t) for t in terms)
                 for i, j, terms in report["table"]}
        quotient = ring_core.FiniteAlgebra(
            ring_core.BaseModulus(report["base"]), report["rank"],
            [f"q{i}" for i in range(report["rank"])], table)
        for coords in report["images"]:
            if not ring_core.is_unit(ring_core.RingElement(quotient, coords))[0]:
                return "an inverted generator is not a unit in the quotient"
        return None


# -- tate-scan -----------------------------------------------------------------

TATE_SCAN_GROUPS = (
    # (law, p, height n, modulus power K, A)
    ("multiplicative", 2, 1, 2, (2, 2)),
    ("honda", 2, 1, 1, (2, 2)),
    ("honda", 5, 1, 1, (1, 1)),
    ("honda", 2, 2, 1, (2, 1)),
    ("multiplicative", 3, 1, 1, (1, 1)),
    ("honda", 2, 1, 1, (1, 1, 1)),
)

# Composite moduli m1*m2 with coprime prime powers: the m1 part survives.
LOCALIZE_SPLITS = ((2, 3), (3, 2), (4, 3), (3, 4), (2, 5), (5, 2), (4, 5), (9, 2))
LOCALIZE_JOBS = 4


def _localize_job(rng, index) -> Job:
    """Localization on a monic tower over Z/(m1*m2) that keeps the m1 part.

    Relations have lower coefficients divisible by rad(N), so both CRT
    components are local.  Each inverted element is a unit mod m1 and
    nilpotent mod m2, so the quotient is the whole m1 component: NONZERO,
    reached through the Smith-form quotient path.
    """
    m1, m2 = rng.choice(LOCALIZE_SPLITS)
    N = m1 * m2
    rad = math.prod(q for q in (2, 3, 5) if N % q == 0)
    degrees = [rng.choice((2, 3)) for _ in range(rng.choice((1, 2)))]
    relations = [[rad * rng.randrange(N) % N for _ in range(d)] + [1] for d in degrees]
    rank = math.prod(degrees)
    p1 = next(q for q in (2, 3, 5) if m1 % q == 0)
    p2 = next(q for q in (2, 3, 5) if m2 % q == 0)
    gens = []
    for _ in range(2):
        coords = [rng.randrange(N) for _ in range(rank)]
        unit_part = rng.choice([a for a in range(1, m1) if a % p1])
        nil_part = p2 * rng.randrange(m2) % m2
        # CRT: constant coordinate = unit_part mod m1, nil_part mod m2
        coords[0] = next(c for c in range(N) if c % m1 == unit_part and c % m2 == nil_part)
        gens.append(coords)
    params = {"N": N, "relations": relations, "gens": gens,
              "survivor": m1, "rank": rank}

    def run():
        alg = ring_core.FiniteAlgebra.from_presentation(
            ring_core.BaseModulus(N), [f"x{k + 1}" for k in range(len(degrees))],
            relations)
        elems = [alg.from_coords(c) for c in gens]
        quotient, proj, chain = ring_core.localize_by_saturation(alg, elems)
        if quotient == ring_core.ZERO_RING:
            return 0, _report({"status": "ZERO", "chain_length": len(chain)})
        return 0, _report({
            "status": "NONZERO",
            "base": quotient.base.n,
            "rank": quotient.rank,
            "table": [[i, j, [list(t) for t in terms]]
                      for (i, j), terms in sorted(quotient.mul_table.items())],
            "images": [list(ring_core.project_element(quotient, proj, e).coords)
                       for e in elems],
            "chain_length": len(chain),
        })

    return Job(f"localize-{index}:N{N}", run,
               lambda report: Checker.localize(params, report))


def tate_scan(rng, checker) -> list[Job]:
    jobs = []
    for kind, p, n, K, A in TATE_SCAN_GROUPS:
        subgroups = list(itertools.product(*(range(i + 1) for i in A)))
        rng.shuffle(subgroups)  # the group's jobs stay consecutive
        for C in subgroups:
            params = {"p": p, "A": list(A), "C": list(C), **_law_params(kind, n, K)}
            tag = f"{kind}-p{p}-n{n}-K{K}-A{''.join(map(str, A))}-C{''.join(map(str, C))}"
            jobs.append(cli_job(f"tate:{tag}", "tate", params, checker.tate))
    jobs += [_localize_job(rng, i) for i in range(LOCALIZE_JOBS)]
    # Frontier: > 30 s today.  Localization by a product-power kernel
    # (ROADMAP item 1) leaves the headline's 3.2 s certificate search, so the
    # deadline sits between that and today's time.
    jobs.append(cli_job("frontier:tate-honda-n1-A222-C111", "tate",
                        {"p": 2, "A": [2, 2, 2], "C": [1, 1, 1]},
                        checker.tate, deadline_s=8.0))
    jobs.append(cli_job("frontier:tate-honda-n2-A22-C11", "tate",
                        {"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda", "n": 2},
                        checker.tate, deadline_s=8.0))
    return jobs


# -- law-build -------------------------------------------------------------------

LAW_BUILD_JOBS = (
    # (law, p, height n, modulus power K, exponents)
    ("honda", 2, 3, 1, (2,)),
    ("honda", 2, 2, 1, (2, 2)),
    ("honda", 2, 1, 1, (2, 2, 2)),
    ("honda", 5, 1, 1, (2,)),
    ("honda", 7, 1, 1, (1, 1)),
    ("multiplicative", 2, 1, 3, (3, 3)),
    ("multiplicative", 3, 1, 2, (2, 2)),
)


def law_build(rng, checker) -> list[Job]:
    jobs = []
    for kind, p, n, K, A in LAW_BUILD_JOBS:
        params = {"p": p, "exponents": list(A), "euler_classes": True,
                  **_law_params(kind, n, K)}
        tag = f"{kind}-p{p}-n{n}-K{K}-A{''.join(map(str, A))}"
        jobs.append(cli_job(f"bgroup:{tag}", "bgroup", params, checker.bgroup))
    rng.shuffle(jobs)
    return jobs


# -- exact-cert --------------------------------------------------------------------

EXACT_CERT_JOBS = (
    # (p, A, C, max_cert_len, INCONCLUSIVE accepted: the search exhausts today)
    (2, (2, 2), (1, 1), 8, False),
    (3, (1, 1, 1), (1, 1, 1), 4, False),
    (3, (2,), (1,), 8, True),
    (2, (3,), (1,), 10, True),
    (2, (2, 2), (2, 1), 8, False),
    (3, (1, 1), (1, 1), 8, False),
    (2, (1, 1, 1, 1), (1, 1, 1, 1), 8, False),
    # Four more of middling cost, so that the median and the tail each fall
    # among several jobs' samples rather than on the edge of one job's.
    (2, (2, 2), (1, 2), 8, False),
    (2, (2, 2), (2, 2), 8, False),
    (7, (1,), (1,), 8, True),
    (3, (1, 1), (1, 0), 8, True),
)


def _exact_job(checker, p, A, C, limit, inconclusive_ok, deadline_s=None) -> Job:
    params = {"p": p, "A": list(A), "C": list(C), "exact": True,
              "max_cert_len": limit}
    tag = f"p{p}-A{''.join(map(str, A))}-C{''.join(map(str, C))}-len{limit}"
    prefix = "frontier:" if deadline_s else ""
    check = functools.partial(checker.tate, inconclusive_ok=inconclusive_ok)
    return cli_job(f"{prefix}tate-exact:{tag}", "tate", params, check, deadline_s)


def exact_cert(rng, checker) -> list[Job]:
    jobs = [_exact_job(checker, *spec) for spec in EXACT_CERT_JOBS]
    rng.shuffle(jobs)
    # Frontier: > 60 s today; milliseconds once certificates are built from
    # group structure (ROADMAP item 2).
    jobs.append(_exact_job(checker, 5, (1, 1), (1, 1), 8, False, deadline_s=3.0))
    return jobs



# -- tuple-witness -------------------------------------------------------------------

# Pair costs depend mostly on the difference u - w, so the differences are
# fixed and only u is drawn: every seed does comparable work.
PAIR_RINGS = (
    # (p, height n, A, differences; None means every nonzero difference)
    (2, 2, (1, 2), None),
    (2, 1, (2, 2), None),
    (2, 2, (2, 2), ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2), (1, 2), (3, 1))),
)
MORAVA_TUPLES = ((3, 2), (5, 1), (5, 2), (7, 1))
ROOTS_MODULUS = 101
# Every (degree, tuple size) with 2 <= degree <= 6 and 1 <= size <= degree:
# 20 jobs whose shapes are fixed, so only the drawn values vary with the seed.
ROOTS_SHAPES = [(d, k) for d in range(2, 7) for k in range(1, d + 1)]


def _pair_job(rng, checker, p, n, A, differences) -> Job:
    orders = [p**i for i in A]
    if differences is None:
        differences = [d for d in itertools.product(*(range(o) for o in orders))
                       if any(d)]
    pairs = []
    for d in differences:
        u = [rng.randrange(o) for o in orders]
        pairs.append((u, [(a - b) % o for a, b, o in zip(u, d, orders)]))
    params = {"p": p, "n": n, "A": list(A), "pairs": pairs}

    def run():
        law = tate_blueshift.build_law("honda", p, n=n, exponents=list(A))
        cr = classifying.build_classifying_ring(law, classifying.AbelianPGroup(p, A))
        out = []
        for u, w in pairs:
            wit = classifying.certify_root_difference(cr, u, w)
            out.append({"difference_element": list(wit["difference_element"]),
                        "unit": ring_core.element_to_json(wit["unit"])})
        return 0, _report({"pairs": out})

    return Job(f"pairs:honda-p{p}-n{n}-A{''.join(map(str, A))}", run,
               lambda report: checker.pair_certs(params, report))


def _tuple_run(gens, roots, f, max_len, to_json):
    tup = ring_linalg.verify_localized_tuple(gens, roots, f, max_len=max_len)
    verdict = ring_linalg.vanishing_condition(f, tup)
    return 0, _report({
        "verdict": verdict.verdict,
        "gens": [to_json(g) for g in gens],
        "roots": [to_json(r) for r in roots],
        "f": [to_json(c) for c in f],
        "pair_witnesses": [[i, j, w["word"], to_json(w["unit"])]
                           for (i, j), w in sorted(tup.witnesses["pairs"].items())],
        "root_witnesses": [[i, w["word"]]
                           for i, w in sorted(tup.witnesses["roots"].items())],
    })


def _morava_job(checker, p, n) -> Job:
    """Height-n Honda law on Z/p: the classes of Z/p are a tuple of f(y) = y."""
    params = {"kind": "morava", "p": p, "n": n}

    def run():
        law = tate_blueshift.build_law("honda", p, n=n, exponents=[1])
        cr = classifying.build_classifying_ring(law, classifying.AbelianPGroup(p, [1]))
        alg = cr.algebra
        gens = [cr.euler_class((w,)).value for w in range(1, p)]
        roots = [cr.euler_class((w,)).value for w in range(p)]
        return _tuple_run(gens, roots, [alg.zero(), alg.one()], p**n,
                          ring_core.element_to_json)

    return Job(f"tuple:morava-p{p}-n{n}", run,
               lambda report: checker.localized_tuple(params, report))


def _ku_job(checker, p, deadline_s) -> Job:
    """Multiplicative law over Z with A = (Z/p)^2; f(y) = ((y+1)^p - 1)/y."""
    params = {"kind": "ku", "p": p}

    def run():
        ring = tate_blueshift.multiplicative_exact_ring(p, [1, 1])
        euler = tate_blueshift.multiplicative_euler_class_exact
        gens = [euler(ring, w) for w in itertools.product(range(p), repeat=2) if any(w)]
        roots = [euler(ring, (w, 0)) for w in range(1, p)] + [euler(ring, (0, 1))]
        f = [math.comb(p, k + 1) * ring.one() for k in range(p)]
        return _tuple_run(gens, roots, f, 4, ring_core.poly_element_to_json)

    return Job(f"frontier:tuple-ku-p{p}", run,
               lambda report: checker.localized_tuple(params, report), deadline_s)


def _roots_params(rng, size, degree):
    """f = g * prod (x - r) over Z/101 with a random monic g; tuple = the r."""
    q = ROOTS_MODULUS
    roots = rng.sample(range(q), size)
    f = [rng.randrange(q) for _ in range(degree - size)] + [1]
    for r in roots:
        f = [((f[k - 1] if k else 0) - r * (f[k] if k < len(f) else 0)) % q
             for k in range(len(f) + 1)]
    return {"modulus": q, "f": [str(c) for c in f], "tuple": [str(r) for r in roots]}


def tuple_witness(rng, checker) -> list[Job]:
    jobs = [_pair_job(rng, checker, *spec) for spec in PAIR_RINGS]
    jobs += [_morava_job(checker, p, n) for p, n in MORAVA_TUPLES]
    for degree, size in ROOTS_SHAPES:
        jobs.append(cli_job(f"roots:deg{degree}-size{size}", "roots",
                            _roots_params(rng, size, degree), checker.roots))
    # Known defects, expected to succeed: the empty tuple raises an uncaught
    # AttributeError (0x0 Vandermonde determinant is the int 1), and a
    # degree-1 relation comes back as a validation error.
    jobs.append(cli_job("defect:roots-empty-tuple", "roots",
                        {"modulus": ROOTS_MODULUS, "f": ["3", "0", "5", "1"],
                         "tuple": []}, checker.roots))
    jobs.append(cli_job("defect:roots-degree-one-relation", "roots",
                        {"ring": {"base": "6", "vars": ["x"], "relations": [["2", "1"]]},
                         "f": ["0", "1"], "tuple": ["0"]}, checker.roots))
    # Frontier: still running after 9 minutes today.
    jobs.append(_ku_job(checker, 5, deadline_s=3.0))
    return jobs


WORKLOADS = {
    "tate-scan": Workload(
        "Localization and rows-only Howell dominate; consecutive jobs share one "
        "law, ring and set of Euler classes, so a cross-job cache shows here only.",
        tate_scan, min_passes=2),
    "law-build": Workload(
        "Law, ring build, Euler classes and JSON output do all the work, with no "
        "localization and nothing shared between jobs.",
        law_build, min_passes=6),
    "exact-cert": Workload(
        "Nearly all multiset-product search over ExactPolyRing with no Howell; "
        "exhausted INCONCLUSIVE searches show worst-case search cost.",
        exact_cert, min_passes=3),
    "tuple-witness": Workload(
        "The only workload in ring_linalg and Howell in solve mode, where the "
        "transform is read; a rows-only Howell change must not slow it.",
        tuple_witness, min_passes=5),
}


def build(workload: str, seed: int, checker: Checker) -> list[Job]:
    """The workload's jobs; the same (workload, seed) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload].build(rng, checker)
