"""CLI contract: exit codes, schema validation, determinism, batch isolation."""

import gc
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import tateshift
from tateshift import tate_blueshift
from tateshift.classifying import AbelianPGroup, SubgroupSpec, build_classifying_ring
from tateshift.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_VALIDATION,
    SCHEMAS,
    build_parser,
    dumps,
    main,
    params_from_args,
    run_batch,
    run_job,
)
from tateshift.fgl import CapTooSmall, IntegralityFailure
from tateshift.tate_blueshift import build_law, inverted_element_set

from oracles import saturation_ideal


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_blueshift_cube_example(capsys):
    code, report = run_cli(
        capsys, ["blueshift", '{"p":2,"A":[2,2,2],"C":[1,1,1]}']
    )
    assert code == EXIT_OK
    assert report["lower_t"] == 2
    assert report["upper_rank"] == 3


def test_blueshift_flags_equivalent(capsys):
    code, report = run_cli(
        capsys, ["blueshift", "--p", "3", "--A", "2,2,2", "--C", "1,1,1"]
    )
    assert code == EXIT_OK
    assert report["lower_t"] == 2


def test_blueshift_explain_scan(capsys):
    code, report = run_cli(
        capsys, ["blueshift", '{"p":2,"A":[2,2,2],"C":[1,1,1]}', "--explain"]
    )
    assert code == EXIT_OK
    scan = {row["j"]: row["term"] for row in report["j_scan"]}
    assert scan[2] == 2 and scan[1] == 0


def test_tate_honda_zero_certificate(capsys):
    code, report = run_cli(
        capsys, ["tate", '{"p":2,"A":[1],"C":[1]}', "--fgl", "honda", "--n", "1"]
    )
    assert code == EXIT_OK
    assert report["status"] == "ZERO"
    assert report["witness"]["certificate"]["length"] == 2


@pytest.mark.parametrize("job", [
    '{"p":2,"A":[2],"C":[1],"fgl":"honda","n":2}',
    '{"p":3,"A":[1,1],"C":[1,0],"fgl":"multiplicative"}',
    # rank 256, chain length 2
    '{"p":2,"A":[2,2],"C":[1,1],"fgl":"honda","n":2}',
])
def test_tate_explain_prints_the_full_saturation_chain(capsys, job):
    # a local tower's chain holds the powers s^(2^i) and ends in the whole
    # module, kept as a marker; --explain prints the same bytes as the
    # kernel rows and identity rows saturation_ideal builds
    assert main(["tate", job, "--explain"]) == EXIT_OK
    explained = capsys.readouterr().out
    assert main(["tate", job]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    params = json.loads(job)
    group = AbelianPGroup(params["p"], params["A"])
    law = build_law(params["fgl"], params["p"], n=params.get("n", 1),
                    exponents=params["A"])
    cr = build_classifying_ring(law, group)
    inverted = inverted_element_set(group, SubgroupSpec(params["C"]))
    _, chain = saturation_ideal(
        cr.algebra, [ec.value for ec in cr.euler_classes(inverted)])
    assert chain[-1] == [[int(i == j) for j in range(cr.algebra.rank)]
                         for i in range(cr.algebra.rank)]
    report["witness"]["saturation_chain"] = [
        [[str(x) for x in row] for row in step] for step in chain]
    assert explained == dumps(report) + "\n"


def test_tate_explain_prints_the_empty_chain_of_a_trivial_c(capsys):
    # a trivial C inverts nothing, so the NONZERO report has no witness;
    # --explain prints its chain, which is empty
    job = '{"p":2,"A":[1],"C":[0]}'
    code, plain = run_cli(capsys, ["tate", job])
    assert code == EXIT_OK and plain["status"] == "NONZERO"
    assert plain["witness"] == {}
    code, explained = run_cli(capsys, ["tate", job, "--explain"])
    assert code == EXIT_OK
    assert explained == {**plain, "witness": {"saturation_chain": []}}


def test_tate_rejects_max_cert_len_below_one(capsys):
    for extra in ([], ["--exact"]):
        code, report = run_cli(
            capsys, ["tate", '{"p":2,"A":[1],"C":[1]}', "--max-cert-len", "0", *extra]
        )
        assert code == EXIT_VALIDATION
        assert "max_cert_len" in report["error"]["message"]


def test_fgl_four_series_mod4(capsys):
    code, report = run_cli(
        capsys,
        ["fgl", "--kind", "multiplicative", "--p", "2", "--modulus-power", "2",
         "--j", "2"],
    )
    assert code == EXIT_OK
    terms = report["pj_series"]["series"]["terms"]
    assert terms == [
        {"coeff": "2", "exp": [2]},
        {"coeff": "1", "exp": [4]},
    ]


def test_roots_scalar_job(capsys):
    job = json.dumps({"modulus": 7, "f": ["2", "4", "1"], "tuple": ["1", "2"]})
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_OK
    assert report["case"] == "Vieta"
    assert report["recovered"] == [["2"], ["4"]]


def test_roots_cramer_job_with_witnesses(capsys):
    job = json.dumps(
        {"modulus": 5, "f": ["0", "4", "0", "1"], "tuple": ["1", "4"]}
    )
    code, report = run_cli(capsys, ["roots", job, "--explain"])
    assert code == EXIT_OK
    assert report["case"] == "Cramer"
    assert report["recovered"] == [["0"], ["4"]]
    assert report["witnesses"]["det_vandermonde"] == ["3"]
    assert report["elimination_trace"]


def test_roots_empty_tuple(capsys):
    # the 0x0 Vandermonde determinant is the ring's identity, not the int 1
    job = json.dumps({"modulus": 101, "f": ["3", "0", "5", "1"], "tuple": []})
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_OK
    assert report["case"] == "Cramer"
    assert report["recovered"] == []
    assert report["witnesses"] == {"det_vandermonde": ["1"], "column_dets": []}


def test_roots_empty_f_is_a_validation_error(capsys):
    job = json.dumps({"modulus": 7, "f": [], "tuple": []})
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_VALIDATION
    assert "'f'" in report["error"]["message"]


def test_roots_degree_one_relation(capsys):
    # Z/6[x]/(x + 2): x is the scalar 4, not a basis monomial
    job = json.dumps({
        "ring": {"base": "6", "vars": ["x"], "relations": [["2", "1"]]},
        "f": ["0", "1"], "tuple": ["0"],
    })
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_OK
    assert report["case"] == "Vieta"
    assert report["recovered"] == [["0"]]


def test_vanish_cert_degree_one_relation(capsys):
    # Z/4[x1, x2]/(x1, x2^2) has basis 1, x2
    job = json.dumps({
        "ring": {"base": "4", "vars": ["x1", "x2"],
                 "relations": [["0", "1"], ["0", "0", "1"]]},
        "gens": [["0", "1"]],
        "max_len": 3,
    })
    code, report = run_cli(capsys, ["vanish-cert", job])
    assert code == EXIT_OK
    assert report["certificate"] == [0, 0]
    assert report["product_is_zero"] is True


def test_roots_invalid_tuple_reported(capsys):
    job = json.dumps({"modulus": 4, "f": ["0", "0", "1"], "tuple": ["0", "1"]})
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_OK
    assert report["tuple_valid"] is False


def test_vanish_cert_exact_ring(capsys):
    job = json.dumps({
        "ring": {"type": "exact", "vars": ["x1", "x2"],
                 "relations": [["-1", "0", "1"], ["-1", "0", "1"]]},
        # monomial order 1, x1, x2, x1*x2: gens x1-1, x2-1, x1x2-1
        "gens": [["-1", "1", "0", "0"], ["-1", "0", "1", "0"],
                 ["-1", "0", "0", "1"]],
        "max_len": 4,
    })
    code, report = run_cli(capsys, ["vanish-cert", job])
    assert code == EXIT_OK
    assert report["found"] is True
    assert report["length"] == 3
    assert report["product_is_zero"] is True


@pytest.mark.parametrize("ring, gens, budget_name", [
    # Z[x1, x2]/(x1^2 - 3, x2^2 - 5) is a domain, so no product of these
    # vanishes; unbudgeted, the search runs through every multiset up to
    # length 30, about 2 million products
    ({"type": "exact", "vars": ["x1", "x2"],
      "relations": [["-3", "0", "1"], ["-5", "0", "1"]]},
     [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["1", "1", "0", "0"],
      ["1", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "1", "1", "0"]],
     "EXACT_SEARCH_BUDGET"),
    # Z/5[x]/(x^2 - 2) is the field with 25 elements
    ({"base": "5", "vars": ["x"], "relations": [["3", "0", "1"]]},
     [["2", "0"], ["0", "1"], ["1", "1"], ["2", "1"], ["3", "1"], ["4", "1"]],
     "CERT_SEARCH_BUDGET"),
])
def test_vanish_cert_budget_recorded(monkeypatch, ring, gens, budget_name):
    monkeypatch.setattr(tate_blueshift, budget_name, 10)
    code, report = run_job("vanish-cert", {"ring": ring, "gens": gens, "max_len": 30})
    assert code == EXIT_OK
    assert report == {"found": False, "max_len": 30, "search_budget": 10}


def test_schema_rejects_unknown_field():
    code, report = run_job("blueshift", {"p": 2, "A": [1], "C": [1], "bogus": 1})
    assert code == EXIT_VALIDATION
    assert "bogus" in report["error"]["message"]


def test_fgl_rejects_explain():
    code, report = run_job(
        "fgl", {"kind": "multiplicative", "p": 2, "explain": True}
    )
    assert code == EXIT_VALIDATION
    assert "explain" in report["error"]["message"]


def test_schema_rejects_missing_field():
    code, report = run_job("blueshift", {"p": 2, "A": [1]})
    assert code == EXIT_VALIDATION


def test_computation_error_carries_module_name(monkeypatch):
    # a domain error keeps the name and module of the layer that raised it
    def runner(params):
        raise CapTooSmall("cap 3 < p^(n*j) = 4")

    monkeypatch.setitem(tateshift.cli.RUNNERS, "fgl", runner)
    code, report = run_job("fgl", {"kind": "honda", "p": 2})
    assert code == EXIT_COMPUTE
    assert report["error"]["name"] == "CapTooSmall"
    assert report["error"]["module"] == "fgl"


DOMAIN_ERRORS = {
    "classifying": ["ClassifyingError", "InvalidSubgroup"],
    "fgl": ["FGLError", "CapTooSmall", "NotWeierstrassReady", "NonLocalRing",
            "IntegralityFailure", "AxiomFailure"],
    "ring_core": ["RingError", "RingMismatch", "NotDivisible",
                  "ZeroDivisorDivisor", "NonFreeQuotient"],
    "ring_linalg": ["LinalgError", "PivotNotCancellable", "DivisibilityFailure",
                    "NotATuple"],
    "series": ["SeriesError", "NonzeroConstantTerm", "NonUnitLinearTerm",
               "NonNilpotentArgument"],
}


def test_every_domain_error_is_named_by_its_class_and_module(monkeypatch):
    # the runner lives outside tateshift, so the module named is the one
    # that defines the class, not the one that raised it
    found = {}
    for module in DOMAIN_ERRORS:
        mod = getattr(tateshift, module)
        found[module] = [name for name, cls in vars(mod).items()
                         if isinstance(cls, type) and issubclass(cls, Exception)
                         and cls.__module__ == mod.__name__]
        for name in found[module]:
            def runner(params, cls=getattr(mod, name)):
                raise cls("out of luck")

            monkeypatch.setitem(tateshift.cli.RUNNERS, "blueshift", runner)
            assert run_job("blueshift", {"p": 2, "A": [1], "C": [1]}) == (
                EXIT_COMPUTE, {"error": {"code": "computation", "module": module,
                                         "name": name, "message": "out of luck"}})
    assert found == DOMAIN_ERRORS


@pytest.mark.parametrize("exc", [
    ValueError("bad pivot"), KeyError("missing"), ZeroDivisionError("1 / 0"),
    TypeError("not iterable"),
])
def test_internal_errors_are_computation_errors(monkeypatch, exc):
    # an exception that no input check raised is a fault of the program:
    # exit 3 naming its type and module, never a validation error
    def runner(params):
        raise exc

    monkeypatch.setitem(tateshift.cli.RUNNERS, "blueshift", runner)
    code, report = run_job("blueshift", {"p": 2, "A": [1], "C": [1]})
    assert code == EXIT_COMPUTE
    assert report == {"error": {"code": "computation", "module": "cli",
                                "name": type(exc).__name__, "message": str(exc)}}
    # a ValidationError a runner raises is still the job's fault
    def checking_runner(params):
        raise tateshift.cli.ValidationError("bad input")

    monkeypatch.setitem(tateshift.cli.RUNNERS, "blueshift", checking_runner)
    assert run_job("blueshift", {"p": 2, "A": [1], "C": [1]}) == (
        EXIT_VALIDATION, {"error": {"code": "validation", "message": "bad input"}})


def test_deep_internal_error_names_the_raising_module(monkeypatch):
    def broken(alg):
        raise ZeroDivisionError("broken tower test")

    monkeypatch.setattr(tateshift.ring_core.FiniteAlgebra, "local_tower_prime", broken)
    code, report = run_job("tate", {"p": 2, "A": [1], "C": [1]})
    assert code == EXIT_COMPUTE
    assert report == {"error": {"code": "computation", "module": "ring_core",
                                "name": "ZeroDivisionError",
                                "message": "broken tower test"}}


MALFORMED_JOBS = [
    ("roots", {"modulus": 1, "f": [1, 1], "tuple": [1]},
     "field 'modulus' must be int >= 2"),
    ("roots", {"modulus": 5, "f": ["a", 1], "tuple": [1]},
     "invalid literal for int() with base 10: 'a'"),
    ("roots", {"modulus": 5, "f": [1, 1], "tuple": [[1, 2]]},
     "coordinate length != rank"),
    ("roots", {"modulus": 5, "f": [1, 1], "tuple": [None]},
     "'NoneType' object is not iterable"),
    ("roots", {"ring": {"base": "4"}, "f": [1, 1], "tuple": [1]}, "'vars'"),
    ("roots", {"ring": {"base": "4", "vars": ["x"], "relations": [["0", "2"]]},
               "f": [1, 1], "tuple": [1]}, "relations must be monic of degree >= 1"),
    ("vanish-cert", {"ring": {"base": "4", "vars": ["x"], "relations": [["0", "0", "1"]]},
                     "gens": [["1"]], "max_len": 3}, "coordinate length != rank"),
    ("vanish-cert", {"ring": {"base": "4", "vars": ["x"], "relations": [["0", "0", "1"]]},
                     "gens": [["2", "0"]], "max_len": 0}, "field 'max_len' must be int >= 1"),
    ("vanish-cert", {"ring": {"type": "exact"}, "gens": [["2"]], "max_len": 3}, "'vars'"),
    ("vanish-cert", {"ring": {"type": "exact", "vars": ["x"], "relations": [["1", "0"]]},
                     "gens": [["2"]], "max_len": 3}, "relations must be monic of degree >= 1"),
]


def test_malformed_rings_and_elements_are_validation_errors():
    code, report = run_batch(
        [json.dumps({"command": c, "params": p}) for c, p, _ in MALFORMED_JOBS])
    assert code == EXIT_VALIDATION
    assert [(job["exit_code"], job["report"]["error"]["message"])
            for job in report["jobs"]] \
        == [(EXIT_VALIDATION, message) for _, _, message in MALFORMED_JOBS]


def test_byte_stable_output(capsys):
    argv = ["bgroup", "--p", "2", "--exponents", "1,1", "--fgl", "honda",
            "--n", "1", "--euler-classes"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_batch_empty_file(tmp_path):
    path = tmp_path / "jobs.ndjson"
    path.write_text("")
    code, report = run_batch(path.read_text().splitlines())
    assert code == EXIT_OK
    assert report == {"jobs": []}


def test_batch_two_jobs_in_order(tmp_path):
    lines = [
        json.dumps({"command": "blueshift",
                    "params": {"p": 2, "A": [2], "C": [1]}}),
        json.dumps({"command": "blueshift",
                    "params": {"p": 2, "A": [1, 1], "C": [1, 1]}}),
    ]
    code, report = run_batch(lines)
    assert code == EXIT_OK
    assert [j["line"] for j in report["jobs"]] == [1, 2]
    assert report["jobs"][0]["report"]["exact"] == 1
    assert report["jobs"][1]["report"]["exact"] == 2


def test_batch_isolates_invalid_job():
    lines = [
        json.dumps({"command": "blueshift",
                    "params": {"p": 2, "A": [2], "C": [1]}}),
        "{not json",
    ]
    code, report = run_batch(lines)
    assert code == EXIT_VALIDATION
    assert report["jobs"][0]["exit_code"] == EXIT_OK
    assert report["jobs"][0]["report"]["exact"] == 1
    assert report["jobs"][1]["exit_code"] == EXIT_VALIDATION


def test_batch_out_files(tmp_path):
    out = tmp_path / "report.json"
    lines = [
        json.dumps({"command": "blueshift",
                    "params": {"p": 2, "A": [2], "C": [1]},
                    "out": str(out)}),
    ]
    code, report = run_batch(lines)
    assert code == EXIT_OK
    assert json.loads(out.read_text())["exact"] == 1


def test_batch_rejects_unknown_job_fields():
    lines = [json.dumps({"command": "blueshift", "params": {}, "extra": 1})]
    code, report = run_batch(lines)
    assert code == EXIT_VALIDATION


def test_ring_json_roundtrip_byte_stable():
    from tateshift import ring_core

    alg = ring_core.FiniteAlgebra.from_presentation(
        ring_core.BaseModulus(4), ["x", "y"], [[0, 2, 1], [0, 0, 1]]
    )
    blob = dumps(ring_core.algebra_to_json(alg))
    again = ring_core.algebra_from_json(json.loads(blob))
    assert dumps(ring_core.algebra_to_json(again)) == blob
    e = again.gen(0) + again.from_int(3)
    coords = ring_core.element_to_json(e)
    assert ring_core.element_from_json(again, coords) == e


def test_env_var_default_cap(capsys, monkeypatch):
    # TATESHIFT_CAP no longer sets a default cap: no report changes with it
    argvs = [["fgl", "--kind", "multiplicative", "--p", "2", "--modulus-power", "2"],
             ["bgroup", '{"p": 2, "exponents": [1], "fgl": "honda"}'],
             ["tate", '{"p": 2, "A": [1], "C": [1], "fgl": "honda"}']]

    def reports():
        codes = [main(argv) for argv in argvs]
        assert codes == [EXIT_OK] * len(argvs)
        return capsys.readouterr().out

    monkeypatch.delenv("TATESHIFT_CAP", raising=False)
    unset = reports()
    for raw in ("18", "banana"):
        monkeypatch.setenv("TATESHIFT_CAP", raw)
        assert reports() == unset


def test_env_cap_read_only_without_job_cap(monkeypatch):
    # only an fgl job sets a cap; the variable neither overrides nor replaces it
    monkeypatch.setenv("TATESHIFT_CAP", "abc")
    code, report = run_job("fgl", {"kind": "honda", "p": 2, "cap": 6})
    assert (code, report["F"]["cap"]) == (EXIT_OK, 6)
    # a group job's law is truncated where its ring needs it, never by the job
    parser = build_parser()
    for command, params in (("bgroup", {"p": 2, "exponents": [1], "fgl": "honda"}),
                            ("tate", {"p": 2, "A": [1], "C": [1]})):
        assert run_job(command, {**params, "cap": 6}) == (EXIT_VALIDATION, {"error": {
            "code": "validation", "message": f"unknown fields for {command}: ['cap']"}})
        with pytest.raises(SystemExit):
            parser.parse_args([command, json.dumps(params), "--cap", "6"])
    # a cap below the 30 that the ring of (Z/4)^2 needs is refused up front
    code, report = run_job("tate", {"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda",
                                     "n": 2, "cap": 18})
    assert code == EXIT_VALIDATION


def test_fgl_m_series_far_out():
    # [1500](x) = (1+x)^1500 - 1 = x^4 over F_2 at cap 4
    code, report = run_job(
        "fgl", {"kind": "multiplicative", "p": 2, "modulus_power": 1,
                "m": 1500, "cap": 4},
    )
    assert code == EXIT_OK
    assert report["m_series"]["series"]["terms"] == [{"coeff": "1", "exp": [4]}]


def test_roots_presented_ring(capsys):
    # Z/4[x]/(x^2+2x): f = y^2 - y with roots {0, 1}, a Vieta case
    job = json.dumps({
        "ring": {"base": "4", "vars": ["x"], "relations": [["0", "2", "1"]]},
        "f": [["0", "0"], ["3", "0"], ["1", "0"]],
        "tuple": [["0", "0"], ["1", "0"]],
    })
    code, report = run_cli(capsys, ["roots", job])
    assert code == EXIT_OK
    assert report["case"] == "Vieta"
    assert report["recovered"] == [["0", "0"], ["3", "0"]]


def test_tate_exact_mode_cli(capsys):
    code, report = run_cli(
        capsys,
        ["tate", '{"p":2,"A":[1,1],"C":[1,1]}', "--exact", "--max-cert-len", "5"],
    )
    assert code == EXIT_OK
    assert report["status"] == "ZERO"
    assert report["mode"] == "exact"
    assert report["witness"]["certificate"]["length"] == 3


def test_tate_exact_cyclic_c_report_bytes(capsys):
    assert main(["tate", '{"p":3,"A":[1,1],"C":[1,0]}', "--exact"]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{"inverted_classes": [[1,0],[1,1],[1,2],[2,0],[2,1],[2,2]],'
        '"mode": "exact","status": "INCONCLUSIVE","witness": {"character": '
        '{"order": 3,"weights": [1,0]},"not_found_max_len": 8}}\n')


_GROUP = "field 'exponents' must be nonempty list of ints >= 1"
_A = "field 'A' must be nonempty list of ints >= 1"
_C = "field 'C' must give one C_k <= A_k for each A_k"
_N = "field 'n' must be 1 unless the law is honda"
_K = "field 'modulus_power' must be 1 unless the law is multiplicative"
# Each of these once reached the algebra and came back as a computation
# error (InvalidSubgroup or CapTooSmall).
OUT_OF_RANGE_JOBS = [
    ("bgroup", {"p": 2, "exponents": [0], "fgl": "honda"}, _GROUP),
    ("bgroup", {"p": 2, "exponents": [-1], "fgl": "honda"}, _GROUP),
    ("bgroup", {"p": 2, "exponents": [], "fgl": "honda"}, _GROUP),
    ("tate", {"p": 2, "A": [-1], "C": [0]}, _A),
    ("tate", {"p": 2, "A": [0], "C": [0], "exact": True}, _A),
    ("blueshift", {"p": 2, "A": [-1], "C": [0]}, _A),
    ("blueshift", {"p": 3, "A": [0], "C": [0], "nonabelian": True}, _A),
    ("tate", {"p": 2, "A": [1, 1], "C": [2, 0]}, _C),
    ("tate", {"p": 2, "A": [1, 1], "C": [-1, 0], "exact": True},
     "field 'C' must be list of ints >= 0"),
    ("blueshift", {"p": 2, "A": [1, 1], "C": [1]}, _C),
    ("fgl", {"kind": "honda", "p": 2, "cap": 1}, "cap must be >= 2"),
    ("fgl", {"kind": "multiplicative", "p": 3, "cap": -1}, "cap must be >= 3"),
    # the [p^j]-series needs a cap of at least p^(n*j) = 4
    ("fgl", {"kind": "honda", "p": 2, "cap": 3, "j": 2}, "cap must be >= 4"),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "honda", "cap": 1},
     "unknown fields for bgroup: ['cap']"),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "multiplicative", "cap": -1},
     "unknown fields for bgroup: ['cap']"),
    ("bgroup", {"p": 2, "exponents": [2], "fgl": "honda", "cap": 3},
     "unknown fields for bgroup: ['cap']"),
    ("tate", {"p": 2, "A": [1, 2], "C": [1, 1], "fgl": "honda", "n": 2,
              "cap": 15}, "unknown fields for tate: ['cap']"),
    # These three once exited 0 with a report that ignored the field: height
    # 1, modulus 2, and the answer for n = 1.
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "multiplicative", "n": 3}, _N),
    ("fgl", {"kind": "honda", "p": 2, "modulus_power": 3}, _K),
    ("tate", {"p": 2, "A": [1, 1], "C": [1, 1], "exact": True, "n": 3}, _N),
    ("fgl", {"kind": "multiplicative", "p": 3, "n": 2}, _N),
    ("tate", {"p": 2, "A": [1, 1], "C": [1, 1], "fgl": "multiplicative",
              "n": 2}, _N),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "honda", "modulus_power": 2}, _K),
    # a tate job without a law builds the Honda law, or in exact mode Z[A]
    ("tate", {"p": 2, "A": [1], "C": [1], "modulus_power": 2}, _K),
    ("tate", {"p": 2, "A": [1], "C": [1], "exact": True, "modulus_power": 2},
     "field 'modulus_power' must be 1 in exact mode"),
    ("tate", {"p": 2, "A": [1], "C": [1], "exact": True,
              "fgl": "multiplicative", "modulus_power": 2},
     "field 'modulus_power' must be 1 in exact mode"),
    # an honest n on the Honda law reaches the exact-mode law check
    ("tate", {"p": 2, "A": [1], "C": [1], "exact": True, "fgl": "honda",
              "n": 2}, "exact mode supports the multiplicative law"),
    # These two once exited 0 with the report of the job without 'explain'.
    ("tate", {"p": 2, "A": [1, 1], "C": [1, 1], "exact": True, "explain": True},
     "field 'explain' must be false in exact mode"),
    ("blueshift", {"p": 3, "A": [1, 1], "C": [1, 1], "nonabelian": True,
                   "explain": True},
     "field 'explain' must be false with 'nonabelian'"),
]


def test_out_of_range_groups_and_caps_are_validation_errors():
    code, report = run_batch(
        [json.dumps({"command": c, "params": p}) for c, p, _ in OUT_OF_RANGE_JOBS])
    assert code == EXIT_VALIDATION
    assert [(job["exit_code"], job["report"]["error"]["message"])
            for job in report["jobs"]] \
        == [(EXIT_VALIDATION, message) for _, _, message in OUT_OF_RANGE_JOBS]


def test_non_prime_p_is_a_validation_error():
    for p in (4, 6):
        for extra in ({}, {"exact": True}):
            code, report = run_job("tate", {"p": p, "A": [1], "C": [1], **extra})
            assert code == EXIT_VALIDATION
            assert report["error"]["message"] == "field 'p' must be prime"
    for command, params in (
        ("fgl", {"kind": "honda"}),
        ("bgroup", {"exponents": [1], "fgl": "multiplicative"}),
        ("blueshift", {"A": [1], "C": [1]}),
    ):
        code, _ = run_job(command, {"p": 4, **params})
        assert code == EXIT_VALIDATION


def _every_c(A):
    return [list(c) for c in itertools.product(*(range(i + 1) for i in A))]


# (command, params, whether the law build raises): every C of three groups,
# one law each, so most jobs follow a job under the same law; an fgl job, a
# validation error and a failed build come between them.
MEMO_JOBS = (
    [("tate", {"p": 2, "A": [2, 1], "C": c}, False) for c in _every_c([2, 1])]
    + [("bgroup", {"p": 2, "exponents": [2, 1], "fgl": "honda",
                   "euler_classes": True}, False),
       ("fgl", {"kind": "honda", "p": 2, "n": 2, "j": 2, "m": 5}, False)]
    + [("tate", {"p": 2, "A": [1, 1], "C": c, "fgl": "honda", "n": 2}, False)
       for c in _every_c([1, 1])]
    + [("tate", {"p": 2, "A": [1, 1], "C": [1, 1], "fgl": "multiplicative",
                 "n": 2}, False),
       ("tate", {"p": 2, "A": [2, 1], "C": [1, 0], "fgl": "multiplicative",
                 "modulus_power": 2}, True)]
    + [("tate", {"p": 2, "A": [2, 1], "C": c, "fgl": "multiplicative",
                 "modulus_power": 2}, False) for c in _every_c([2, 1])]
)


def _held_laws():
    return list(tateshift.cli._last_law.values())


def test_consecutive_jobs_share_one_law(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_law(*args, **kwargs)

    def broken(*args, **kwargs):
        raise IntegralityFailure("injected")

    def run(command, params, raises):
        with monkeypatch.context() as m:
            m.setattr(tateshift.cli, "build_law", broken if raises else counted)
            code, report = run_job(command, params)
        assert (code == EXIT_COMPUTE) == raises
        return code, dumps(report)

    tateshift.cli._last_law.clear()
    shared, released = [], 0
    for command, params, raises in MEMO_JOBS:
        ref = [weakref.ref(law) for law in _held_laws()]
        shared.append(run(command, params, raises))
        held = _held_laws()
        assert len(held) == (0 if raises else 1)
        if ref and ref[0]() not in held:
            gc.collect()
            assert ref[0]() is None  # the old law is released, not kept
            released += 1
    # one build per run of jobs under one law; the failed build keeps nothing
    assert len(builds) == 4 and released == 3
    for (command, params, raises), result in zip(MEMO_JOBS, shared):
        tateshift.cli._last_law.clear()
        assert run(command, params, raises) == result
    tateshift.cli._last_law.clear()


@pytest.mark.parametrize("command, params", [
    ("blueshift", {"p": 2, "A": [2, 2], "C": [1, 1]}),
    ("roots", {"modulus": 7, "f": [6, 0, 1], "tuple": [1, 6]}),
    ("vanish-cert", {"ring": {"base": "4", "vars": ["x"], "relations": [["0", "0", "1"]]},
                     "gens": [["0", "1"]], "max_len": 2}),
    ("tate", {"p": 2, "A": [1, 1], "C": [1, 1], "exact": True}),
])
def test_jobs_that_build_no_law_release_the_held_one(command, params):
    # after a Honda n=2 tate job, a job that builds no law leaves neither
    # the law nor its ring held
    tateshift.cli._last_law.clear()
    code, _ = run_job("tate", {"p": 2, "A": [2, 1], "C": [1, 1], "fgl": "honda",
                               "n": 2})
    assert code == EXIT_OK
    refs = [weakref.ref(obj) for memo in _held_laws() for obj in (memo, memo.ring)]
    assert len(refs) == 2
    code, _ = run_job(command, params)
    assert code == EXIT_OK
    assert not _held_laws()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _held_rings():
    return [memo.ring for memo in tateshift.cli._last_law.values()
            if memo.ring is not None]


def test_consecutive_jobs_on_one_group_share_one_ring(monkeypatch):
    # MEMO_JOBS again, with the failing job's ring build failing instead of
    # its law build: the ring is built once per run of bgroup and tate jobs
    # on one (law, A), leaves with its law, and a failed build keeps none
    builds = []

    def counted(law, group):
        builds.append(group.exponents)
        return build_classifying_ring(law, group)

    def broken(law, group):
        raise CapTooSmall("injected")

    tateshift.cli._last_law.clear()
    released = 0
    for command, params, raises in MEMO_JOBS:
        refs = [(weakref.ref(cr), weakref.ref(cr.law)) for cr in _held_rings()]
        with monkeypatch.context() as m:
            m.setattr(tateshift.cli, "build_classifying_ring",
                      broken if raises else counted)
            code, _ = run_job(command, params)
        assert (code == EXIT_COMPUTE) == raises
        held = _held_rings()
        assert len(held) == (0 if raises or command == "fgl" else 1)
        for ring_ref, law_ref in refs:
            if ring_ref() not in held:
                gc.collect()
                # in MEMO_JOBS a ring only leaves when its law does
                assert ring_ref() is None and law_ref() is None
                released += 1
    # runs: honda A=[2,1] (six tate jobs and a bgroup), honda n=2 A=[1,1]
    # (four tate jobs), multiplicative K=2 A=[2,1] after the failed build;
    # the first two rings leave with their laws
    assert builds == [(2, 1), (1, 1), (2, 1)] and released == 2
    tateshift.cli._last_law.clear()


def test_jobs_sharing_a_ring_report_as_alone():
    # every C of Honda n=2 A=(Z/4)+(Z/2) and of multiplicative K=2
    # A=(Z/4)^2, with and without explain, shuffled within each group's run,
    # with a bgroup of the group and a job on another group (A=Z/4, under
    # the same law as (Z/4)+(Z/2)) in the run: each report is the job's
    # report when it runs with nothing held
    honda = {"fgl": "honda", "n": 2}
    mult = {"fgl": "multiplicative", "modulus_power": 2}
    rng = random.Random(22)
    jobs = []
    for law, A in ((honda, [2, 1]), (mult, [2, 2])):
        run = [("tate", {"p": 2, "A": A, "C": c, **law, **extra})
               for c in _every_c(A) for extra in ({}, {"explain": True})]
        rng.shuffle(run)
        run.insert(rng.randrange(len(run)), (
            "bgroup", {"p": 2, "exponents": A, "euler_classes": True, **law}))
        jobs += run
    jobs.insert(rng.randrange(1, 12), ("tate", {"p": 2, "A": [2], "C": [1],
                                                **honda}))
    tateshift.cli._last_law.clear()
    shared = [dumps(run_job(command, params)[1]) for command, params in jobs]
    for (command, params), report in zip(jobs, shared):
        tateshift.cli._last_law.clear()
        assert dumps(run_job(command, params)[1]) == report, (command, params)
    tateshift.cli._last_law.clear()


# Each of these once hung (a height below 1 never ends the log loop of
# build_honda), escaped run_job (j = -1 made the cap a float) or reported a
# computation error over Z/0.5 (a modulus power below 1).
BAD_LAW_JOBS = [
    ("fgl", {"kind": "honda", "p": 2, "n": 0}, "field 'n' must be int >= 1"),
    ("fgl", {"kind": "honda", "p": 3, "n": -1}, "field 'n' must be int >= 1"),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "honda", "n": 0},
     "field 'n' must be int >= 1"),
    ("tate", {"p": 2, "A": [1], "C": [1], "fgl": "honda", "n": -2},
     "field 'n' must be int >= 1"),
    ("fgl", {"kind": "honda", "p": 2, "j": -1}, "field 'j' must be int >= 0"),
    ("fgl", {"kind": "multiplicative", "p": 2, "modulus_power": 0},
     "field 'modulus_power' must be int >= 1"),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "multiplicative",
                "modulus_power": -1}, "field 'modulus_power' must be int >= 1"),
    ("tate", {"p": 2, "A": [1], "C": [1], "modulus_power": 0},
     "field 'modulus_power' must be int >= 1"),
]


def _child(args):
    """Python with tateshift importable, in a child process under a timeout,
    so that a regression to a hang fails instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(tateshift.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=30, env=env)


def test_bad_height_modulus_power_and_j_are_validation_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps({"command": c, "params": p}) + "\n"
                            for c, p, _ in BAD_LAW_JOBS))
    proc = _child(["-m", "tateshift.cli", "batch", str(path)])
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    jobs = json.loads(proc.stdout)["jobs"]
    assert [(job["exit_code"], job["report"]["error"]["message"]) for job in jobs] \
        == [(EXIT_VALIDATION, message) for _, _, message in BAD_LAW_JOBS]


def test_law_builders_refuse_height_and_modulus_power_below_one():
    proc = _child(["-c", """
from tateshift.fgl import build_honda, build_multiplicative
for build, args in ((build_honda, (2, 0, 8)), (build_honda, (3, -1, 8)),
                    (build_multiplicative, (2, 0, 8)),
                    (build_multiplicative, (2, -1, 8))):
    try:
        build(*args)
    except ValueError as exc:
        print(exc)
"""])
    assert proc.stdout.splitlines() == ["height n must be >= 1"] * 2 \
        + ["modulus power K must be >= 1"] * 2, proc.stderr


# A valid value of each schema type that has a flag.
FLAG_SAMPLES = {
    "int": 7, "prime": 3, "int >= 1": 2, "int >= 0": 0, "int >= 2": 4,
    "bool": True, "multiplicative or honda": "honda",
    "nonempty list of ints >= 1": [2, 1], "list of ints >= 0": [1, 0],
}
JSON_ONLY = {"list", "nonempty list", "object"}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_scalar_and_int_list_field_has_a_flag(command):
    parser = build_parser()
    for field, ((type_name, check, _), _) in SCHEMAS[command].items():
        flag = "--" + field.replace("_", "-")
        if type_name in JSON_ONLY:
            with pytest.raises(SystemExit):
                parser.parse_args([command, flag, "[]"])
            continue
        value = FLAG_SAMPLES[type_name]
        assert check(value)
        argv = [flag] if value is True else [
            flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        assert params_from_args(parser.parse_args([command, *argv])) == {field: value}
        # the flag overrides the JSON field and keeps the others
        job = json.dumps({field: None, "other": 1})
        assert params_from_args(parser.parse_args([command, job, *argv])) \
            == {field: value, "other": 1}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_exit_zero(capsys, tmp_path):
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(cmd, comments=True)
                for cmd in re.split(r"^tateshift ", block, flags=re.M) if cmd.strip()]
    assert sorted({argv[0] for argv in commands}) == sorted([*SCHEMAS, "batch"])
    jobs = tmp_path / "jobs.ndjson"
    jobs.write_text(
        json.dumps({"command": "blueshift", "params": {"p": 2, "A": [2], "C": [1]}})
        + "\n" + json.dumps({"command": "fgl", "params": {"kind": "honda", "p": 2}})
        + "\n")
    for argv in commands:
        if argv[0] == "batch":
            argv = ["batch", str(jobs)]
        assert main(argv) == EXIT_OK, argv
        assert "error" not in json.loads(capsys.readouterr().out)


def test_missing_required_flag_is_a_json_validation_error(capsys):
    code, report = run_cli(capsys, ["fgl", "--p", "2"])
    assert (code, report) == (EXIT_VALIDATION, {"error": {
        "code": "validation", "message": "fgl requires field 'kind'"}})
    # fgl and bgroup take their parameters as JSON too
    assert main(["fgl", "--kind", "honda", "--p", "2", "--j", "1"]) == EXIT_OK
    flags = capsys.readouterr().out
    assert main(["fgl", '{"kind": "honda", "p": 2}', "--j", "1"]) == EXIT_OK
    assert capsys.readouterr().out == flags


@pytest.mark.parametrize("command, params, message", [
    ("fgl", {"kind": "formal", "p": 2}, "field 'kind' must be multiplicative or honda"),
    ("bgroup", {"p": 2, "exponents": [1], "fgl": "additive"},
     "field 'fgl' must be multiplicative or honda"),
    ("tate", {"p": 2, "A": [1], "C": [1], "fgl": 1},
     "field 'fgl' must be multiplicative or honda"),
    ("tate", {"p": 2, "A": [1], "C": [1], "max_cert_len": -1, "exact": True},
     "field 'max_cert_len' must be int >= 1"),
    ("roots", {"ring": {}, "f": [], "tuple": []}, "field 'f' must be nonempty list"),
])
def test_single_field_checks_are_schema_checks(command, params, message):
    assert run_job(command, params) == (
        EXIT_VALIDATION, {"error": {"code": "validation", "message": message}})


def test_unreadable_input_is_a_validation_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, report = run_cli(capsys, ["tate", "--input", str(missing)])
    assert code == EXIT_VALIDATION
    assert str(missing) in report["error"]["message"]
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, report = run_cli(capsys, ["tate", "--input", str(binary)])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("exponents", ["2,,2", "2,2,", ""])
def test_empty_comma_separated_entry_is_a_validation_error(capsys, exponents):
    # "2,,2" once parsed as [2, 2]
    code, report = run_cli(
        capsys, ["blueshift", "--p", "2", "--A", exponents, "--C", "1,1"])
    assert (code, report) == (EXIT_VALIDATION, {"error": {
        "code": "validation",
        "message": f"expected comma separated integers: {exponents!r}"}})


def test_batch_params_that_are_not_an_object_fail_alone():
    lines = [json.dumps({"command": "blueshift", "params": params})
             for params in ([1, 2], "x", None, {"p": 2, "A": [2], "C": [1]})]
    code, report = run_batch(lines)
    assert code == EXIT_VALIDATION
    invalid = {"error": {"code": "validation", "message": "params must be a JSON object"}}
    assert [job["report"] for job in report["jobs"][:3]] == [invalid] * 3
    assert [job["exit_code"] for job in report["jobs"]] == [EXIT_VALIDATION] * 3 + [EXIT_OK]
    assert report["jobs"][3]["report"]["exact"] == 1


def test_batch_out_that_cannot_be_written_fails_alone(tmp_path):
    unwritable = tmp_path / "nonexistent" / "dir" / "x.json"
    written = tmp_path / "x.json"
    params = {"p": 2, "A": [2], "C": [1]}
    lines = [json.dumps({"command": "blueshift", "params": params, "out": out})
             for out in (str(unwritable), 3, str(written))]
    code, report = run_batch(lines)
    assert code == EXIT_VALIDATION
    jobs = report["jobs"]
    assert [job["exit_code"] for job in jobs] == [EXIT_VALIDATION] * 2 + [EXIT_OK]
    assert str(unwritable) in jobs[0]["report"]["error"]["message"]
    assert jobs[1]["report"]["error"]["message"] == "job field 'out' must be a path"
    assert json.loads(written.read_text())["exact"] == 1


def test_deeply_nested_json_is_a_validation_error(capsys, tmp_path):
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["tate", deep], ["tate", "--input", str(path)]):
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert err == ""
        error = json.loads(out)["error"]
        assert error["code"] == "validation"
        assert error["message"].startswith("invalid JSON parameters: maximum recursion")
    # a batch line nested too deep fails alone
    path.write_text(deep + "\n" + json.dumps(
        {"command": "blueshift", "params": {"p": 2, "A": [2], "C": [1]}}) + "\n")
    assert main(["batch", str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    jobs = json.loads(out)["jobs"]
    assert err == ""
    assert [job["exit_code"] for job in jobs] == [EXIT_VALIDATION, EXIT_OK]
    assert jobs[0]["report"]["error"]["code"] == "validation"
