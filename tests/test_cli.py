"""The cf command line tool, driven in-process."""

import json

import pytest

from clusterfrob import LaurentPoly, NotDivisibleError
from clusterfrob.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths ----------------------------------------------------------------


def test_mutate(capsys):
    code, out, err = run(capsys, "mutate", "--quiver", "a2", "--at", "1")
    assert code == 0
    assert "witness x1: x1^-1*x2 + x1^-1" in out
    assert out.rstrip().endswith("result: PASS")
    assert err.startswith("wall-time:")


def test_mutate_sequence(capsys):
    code, out, _ = run(capsys, "mutate", "--quiver", "a2",
                       "--at", "1", "2", "1")
    assert code == 0
    assert "input vertices: 1,2,1" in out


def test_explore_pentagon(capsys):
    code, out, _ = run(capsys, "explore", "--quiver", "a2", "--depth", "4")
    assert code == 0
    assert "witness seeds: 5" in out
    assert "witness variables: 5" in out
    assert "witness closed: yes" in out


def test_laurent_div(capsys):
    code, out, _ = run(capsys, "laurent", "--vars", "2", "--op", "div",
                       "--lhs", "x1^2 - x2^2", "--rhs", "x1 - x2")
    assert code == 0
    assert "witness value: x1 + x2" in out


def test_laurent_diff(capsys):
    code, out, _ = run(capsys, "laurent", "--vars", "1", "--op", "diff",
                       "--lhs", "x1^3", "--index", "1")
    assert code == 0
    assert "witness value: 3*x1^2" in out


def test_split(capsys):
    code, out, _ = run(capsys, "split", "--vars", "1", "--prime", "3",
                       "--num", "x1^6 + x1^3")
    assert code == 0
    assert "witness value: x1^2 + x1" in out


def test_certify_acyclic(capsys):
    code, out, _ = run(capsys, "certify-acyclic", "--quiver", "a3",
                       "--prime", "5")
    assert code == 0
    assert "check splits-to-one: pass" in out


def test_markov_freg(capsys):
    code, out, _ = run(capsys, "markov", "--check", "freg", "--prime", "7")
    assert code == 0
    assert "witness value: 1" in out


def test_markov_relation(capsys):
    code, out, _ = run(capsys, "markov", "--check", "relation", "--a", "3")
    assert code == 0
    assert "witness deg-M: 0" in out


def test_markov_membership(capsys):
    code, out, _ = run(capsys, "markov", "--check", "membership",
                       "--depth", "2")
    assert code == 0
    assert "check laurent-in-every-sampled-cluster: pass" in out


def test_markov_obstruction(capsys):
    code, out, _ = run(capsys, "markov", "--check", "obstruction",
                       "--a", "3", "--prime", "5")
    assert code == 0
    assert "check split-degree-positive-or-zero: pass" in out


def test_markov_grading_a2(capsys):
    code, out, _ = run(capsys, "markov", "--check", "grading",
                       "--depth", "3")
    assert code == 0
    assert "check variables-homogeneous-degree-1: pass" in out


def test_markov_grading_a2_rejects_a_non_prime(capsys):
    code, out, err = run(capsys, "markov", "--check", "grading",
                         "--a", "2", "--prime", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: 4 is not prime")


def test_markov_grading_a2_over_a_prime_field(capsys):
    code, out, _ = run(capsys, "markov", "--check", "grading",
                       "--a", "2", "--prime", "5")
    assert code == 0
    assert "input field: GF(5)" in out
    assert "witness variables: 48" in out
    assert "check variables-homogeneous-degree-1: pass" in out


def test_lowerbound_split(capsys):
    code, out, _ = run(capsys, "lowerbound", "--quiver", "a2",
                       "--prime", "3", "--check", "split")
    assert code == 0
    assert "check psi-of-one-is-one: pass" in out
    assert "check localization-identity: pass" in out


def test_lowerbound_compat(capsys):
    code, out, _ = run(capsys, "lowerbound", "--quiver", "mixed-pair",
                       "--prime", "2", "--check", "compat", "--degree", "2")
    assert code == 0
    assert "check psi-f-image-in-ideal: pass" in out


def test_volform(capsys):
    code, out, _ = run(capsys, "volform", "--quiver", "a3")
    assert code == 0
    assert "witness sign-at-1: -1" in out
    assert "witness sign-at-3: -1" in out


def test_volform_path(capsys):
    code, out, _ = run(capsys, "volform", "--quiver", "markov",
                       "--path", "1,2,3")
    assert code == 0
    assert "witness sign: -1" in out


# -- quiver files ----------------------------------------------------------------


def test_quiver_from_file(tmp_path, capsys):
    path = tmp_path / "kite.quiver"
    path.write_text('{"n": 2, "arrows": [[1, 2, 1]]}')
    code, out, _ = run(capsys, "explore", "--quiver", str(path),
                       "--depth", "2")
    assert code == 0
    assert "witness seeds: 5" in out


def test_seed_file_with_vars(tmp_path, capsys):
    path = tmp_path / "shifted.quiver"
    path.write_text(json.dumps({
        "n": 2, "arrows": [[1, 2, 1]],
        "vars": ["x1^-1*x2 + x1^-1", "x2"],
    }))
    code, out, _ = run(capsys, "mutate", "--quiver", str(path), "--at", "1")
    assert code == 0
    assert "witness x1: x1" in out  # mutating back recovers x1


def test_lowerbound_reads_a_seed_file_with_vars(tmp_path, capsys):
    # the presentation depends only on the quiver
    bare = tmp_path / "bare.quiver"
    bare.write_text('{"n": 2, "arrows": [[2, 1, 1]]}')
    shifted = tmp_path / "shifted.quiver"
    shifted.write_text(json.dumps({
        "n": 2, "arrows": [[2, 1, 1]],
        "vars": ["x1^-1*x2 + x1^-1", "x2"],
    }))
    outs = []
    for path in (bare, shifted):
        code, out, _ = run(capsys, "lowerbound", "--quiver", str(path),
                           "--prime", "3", "--check", "compat")
        assert code == 0
        outs.append(out.replace(str(path), "F"))
    assert outs[0] == outs[1]
    assert "input quiver: F\n" in outs[0]


@pytest.mark.parametrize("argv,check", [
    (("mutate", "--at", "1"), "laurent-at-every-step"),
    (("explore", "--depth", "3"), "exchange-graph-walk"),
], ids=["mutate", "explore"])
def test_vars_not_a_cluster_fail_the_certificate(tmp_path, capsys, argv,
                                                 check):
    path = tmp_path / "not-a-cluster.quiver"
    path.write_text(json.dumps({
        "n": 2, "arrows": [[1, 2, 1]], "vars": ["x1 + x2", "x2"],
    }))
    code, out, err = run(capsys, argv[0], "--quiver", str(path), *argv[1:])
    assert code == 1
    assert (f"check {check}: FAIL (mutation at vertex 1 is not Laurent: "
            "the file's vars are not a cluster of its quiver)") in out
    assert out.rstrip().endswith("result: FAIL")
    assert "bug" not in out + err


def test_non_laurent_mutation_of_a_quiver_seed_is_a_bug(capsys, monkeypatch):
    def refuse(self, divisor):
        raise NotDivisibleError("refused")

    monkeypatch.setattr(LaurentPoly, "exact_divide", refuse)
    code, out, err = run(capsys, "mutate", "--quiver", "a2", "--at", "1")
    assert code == 1
    assert out == ""
    assert "error: mutation at 0 produced a non-Laurent variable; " \
        "this is a bug" in err


def test_bad_vars_in_file(tmp_path, capsys):
    path = tmp_path / "bad.quiver"
    path.write_text('{"n": 2, "arrows": [[1, 2, 1]], "vars": ["x1"]}')
    code, _, err = run(capsys, "mutate", "--quiver", str(path), "--at", "1")
    assert code == 2
    assert "vars" in err


# -- failures and exit codes ------------------------------------------------------


def test_unknown_corpus_name(capsys):
    code, _, err = run(capsys, "mutate", "--quiver", "nope", "--at", "1")
    assert code == 2
    assert "no bundled quiver" in err


def test_vertex_out_of_range(capsys):
    code, _, err = run(capsys, "mutate", "--quiver", "a2", "--at", "5")
    assert code == 2
    assert "out of range" in err


def test_mutate_frozen_is_usage_error(capsys):
    code, _, err = run(capsys, "mutate", "--quiver", "mixed-pair",
                       "--at", "2")
    assert code == 2
    # named 1-based, like the range error
    assert err.startswith("error: vertex 2 is frozen\n")


@pytest.mark.parametrize("where", [["--at", "2"], ["--path", "1,2"]])
def test_volform_frozen_is_usage_error(capsys, where):
    code, out, err = run(capsys, "volform", "--quiver", "mixed-pair", *where)
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex 2 is frozen\n")


def test_nondivisible_is_math_failure(capsys):
    code, out, _ = run(capsys, "laurent", "--vars", "2", "--op", "div",
                       "--lhs", "x1 + 1", "--rhs", "x2 + 1")
    assert code == 1
    assert "check exact-division: FAIL" in out
    assert out.rstrip().endswith("result: FAIL")


def test_markov_bad_characteristic(capsys):
    code, out, _ = run(capsys, "markov", "--check", "freg", "--prime", "3")
    assert code == 1
    assert "check characteristic: FAIL" in out


def test_certify_cyclic_fails(capsys):
    code, out, _ = run(capsys, "certify-acyclic", "--quiver", "markov",
                       "--prime", "5")
    assert code == 1
    assert "check hypotheses: FAIL" in out


def test_budget_exit(capsys):
    code, _, err = run(capsys, "explore", "--quiver", "a3", "--depth", "9",
                       "--budget-seeds", "3")
    assert code == 2
    assert "max_seeds" in err


@pytest.mark.parametrize("flag", ["--budget-terms", "--budget-seeds"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_below_one_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--quiver", "a2", "--depth", "2", f"{flag}={value}"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["laurent", "--op", "add", "--lhs", "1", "--rhs", "1"],
    ["split", "--prime", "3", "--num", "1"]])
def test_vars_must_be_nonnegative(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--vars", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err
    # no variables is legal: the constants
    code, out, _ = run(capsys, *argv, "--vars", "0")
    assert code == 0 and out.rstrip().endswith("result: PASS")


def test_laurent_diff_index_names_a_variable(capsys):
    code, out, err = run(capsys, "laurent", "--vars", "2", "--op", "diff",
                         "--lhs", "x1^3", "--index", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: variable 3 out of range 1..2\n")


def test_negative_degree_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound", "--quiver", "a2", "--prime", "3", "--check",
              "compat", "--degree", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err


def test_negative_membership_depth_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["markov", "--check", "membership", "--depth", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err


@pytest.mark.parametrize("check", ["relation", "grading"])
@pytest.mark.parametrize("a", ["1", "0", "-1"])
def test_markov_below_two_is_usage_error(capsys, check, a):
    code, out, err = run(capsys, "markov", "--check", check, "--a", a)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the Markov family needs a >= 2")


@pytest.mark.parametrize("argv", [
    ["split", "--vars", "2", "--prime", "5", "--num", "x1", "--den", "0"],
    ["split", "--vars", "2", "--prime", "5", "--num", "x1",
     "--twist-den", "0"],
    ["laurent", "--vars", "1", "--op", "div", "--lhs", "x1", "--rhs", "0"],
])
def test_zero_divisor_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "zero" in err


def test_zero_denominator_coefficient_is_usage_error(capsys):
    code, out, err = run(capsys, "laurent", "--vars", "2", "--op", "mul",
                         "--lhs", "1/0*x1", "--rhs", "x2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad polynomial at offset 3: "
                          "zero denominator in '1/0'\n")


def test_exponent_past_two_to_the_63_is_exact(capsys):
    code, out, err = run(capsys, "laurent", "--vars", "1", "--op", "mul",
                         "--lhs", f"x1^{2**63 - 1}", "--rhs", "x1")
    assert code == 0
    assert "witness value: x1^9223372036854775808\n" in out
    assert "result: PASS" in out


def test_quotient_exponent_past_two_to_the_63_is_exact(capsys):
    # a multi-term divisor, through the cancellation loop, and a monomial
    for lhs, rhs in ((f"x1^{2**63 - 1} + x1^{2**63 - 2}", "x1^-1 + x1^-2"),
                     (f"x1^{2**63 - 1}", "x1^-1")):
        code, out, err = run(capsys, "laurent", "--vars", "1", "--op", "div",
                             "--lhs", lhs, "--rhs", rhs)
        assert code == 0
        assert "witness value: x1^9223372036854775808\n" in out
        assert "check quotient-times-divisor: pass\n" in out


def test_numbers_past_the_interpreters_digit_limit_are_usage_errors(capsys):
    # exact arithmetic goes on past the limit, but the text form cannot
    # hold the number: a usage error that names the limit, on either side
    nines = "9" * 4300
    code, out, err = run(capsys, "laurent", "--vars", "1", "--op", "mul",
                         "--lhs", f"x1^{nines}", "--rhs", f"x1^{nines}")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot print the polynomial: an exponent "
                          "or coefficient has more than 4300 digits")
    code, out, err = run(capsys, "laurent", "--vars", "1", "--op", "mul",
                         "--lhs", f"x1^{nines}9", "--rhs", "x1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad polynomial at offset 3: a number of "
                          "4301 digits, more than the 4300 this interpreter "
                          "reads from text\n")
    code, _, err = run(capsys, "laurent", "--vars", "1", "--op", "add",
                       "--lhs", f"{nines}99/7*x1", "--rhs", "x1")
    assert code == 2
    assert "a number of 4302 digits" in err


def test_composite_prime_rejected(capsys):
    code, _, err = run(capsys, "split", "--vars", "1", "--prime", "4",
                       "--num", "x1^4")
    assert code == 2


def test_malformed_quiver_file(tmp_path, capsys):
    path = tmp_path / "broken.quiver"
    path.write_text('{"n": 2, "arrows": [[1 2, 1]]}')
    code, _, err = run(capsys, "mutate", "--quiver", str(path), "--at", "1")
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("doc,named", [
    ('{"n": true, "arrows": []}', "'n' must be a positive integer, got True"),
    ('{"n": 2, "arrows": [[1, 2, true]]}', "arrow [1, 2, True]"),
    ('{"n": 2, "frozen": [true], "arrows": [[1, 2, 1]]}',
     "frozen vertex True"),
])
def test_boolean_in_quiver_file_is_a_format_error(tmp_path, capsys, doc,
                                                  named):
    # JSON true is no integer, though Python's True equals 1
    path = tmp_path / "bool.quiver"
    path.write_text(doc)
    code, out, err = run(capsys, "mutate", "--quiver", str(path), "--at", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and named in err


def test_unreadable_quiver_path_names_the_file(tmp_path, capsys):
    # a directory, and a file that is not UTF-8, are format errors
    code, out, err = run(capsys, "mutate", "--quiver", str(tmp_path),
                         "--at", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path}: Is a directory\n")
    path = tmp_path / "latin1.quiver"
    path.write_bytes(b'{"n": 1, "arrows": [], "note": "caf\xe9"}')
    code, out, err = run(capsys, "mutate", "--quiver", str(path), "--at", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text at byte 35\n")


@pytest.mark.parametrize("value,message", [
    # a strong pseudoprime to the prime bases 2..37, and the least one
    # to 2..41, past which primality is not decided
    (318665857834031151167461, "is not prime"),
    (3317044064679887385961981, "only n < 3317044064679887385961981 "
                                "is decided"),
])
def test_prime_past_the_exact_test_is_a_usage_error(capsys, value, message):
    code, out, err = run(capsys, "laurent", "--vars", "1", "--prime",
                         str(value), "--op", "mul", "--lhs", "2*x1",
                         "--rhs", "x1")
    assert (code, out) == (2, "")
    assert message in err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()


# -- json and determinism -----------------------------------------------------------


def test_json_output_parses(capsys):
    code, out, _ = run(capsys, "certify-acyclic", "--quiver", "a2",
                       "--prime", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "PASS"
    assert data["witnesses"]["sink"] == "2"
    assert all(c["ok"] for c in data["checks"])


def test_json_failure_parses(capsys):
    code, out, _ = run(capsys, "markov", "--check", "freg", "--prime", "2",
                       "--json")
    assert code == 1
    data = json.loads(out)
    assert data["result"] == "FAIL"


@pytest.mark.parametrize("argv", [
    ("mutate", "--quiver", "a2", "--at", "1", "2"),
    ("explore", "--quiver", "a3", "--depth", "3"),
    ("certify-acyclic", "--quiver", "a2", "--prime", "5"),
    ("markov", "--check", "freg", "--prime", "5"),
    ("lowerbound", "--quiver", "a2", "--prime", "3", "--check", "split"),
    ("volform", "--quiver", "markov"),
    ("markov", "--check", "freg", "--prime", "5", "--json"),
])
def test_byte_identical_across_runs(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == second[0]
    assert first[1] == second[1]  # stdout bytes agree; timing is on stderr
