import json

import pytest
from click.testing import CliRunner

from bidisklab import serialize
from bidisklab.cli import main, run
from bidisklab.inner import RationalInnerMatrix, builtin
from bidisklab.polynomials import BiPoly, MatPoly, reflect


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_examples_list_names_builtins():
    res = invoke("examples", "list")
    assert res.exit_code == 0
    assert "hadamard_z1z2" in res.output
    assert "scalar_favorite" in res.output


def test_inner_check_builtin_passes():
    res = invoke("inner", "check", "hadamard_z1z2", "--grid", "8", "--exact")
    assert res.exit_code == 0
    assert "pass" in res.output


def test_inner_check_non_inner_file_exits_2(tmp_path):
    bad = RationalInnerMatrix(
        2,
        MatPoly([[BiPoly.one() + BiPoly.monomial(1, 0), BiPoly.zero()],
                 [BiPoly.zero(), BiPoly.one()]]),
        BiPoly.one(), "bad")
    path = tmp_path / "bad.json"
    serialize.save_json(serialize.theta_to_json(bad), path)
    res = invoke("inner", "check", str(path))
    assert res.exit_code == 2
    assert "FAIL" in res.output and "NOT_INNER" in res.output
    # every computing command admits its input through the same gate
    for args in (("rank", path), ("agler", "dims", path), ("agler", "verify", path),
                 ("inner", "expand", path, "--trunc", "4", "4")):
        res = invoke(*map(str, args))
        assert res.exit_code == 2, args
        assert res.output.startswith("input rejected: InnerFunctionError: "), args
        assert "NOT_INNER" in res.output, args


def test_unstable_denominator_file_exits_2(tmp_path):
    p = BiPoly.from_terms([(0, 0, 1), (1, 0, -2), (0, 1, 0.1)])
    data = {"d": 1, "p": serialize.poly_to_terms(p),
            "Q": [[serialize.poly_to_terms(reflect(p, 1, 1))]], "label": "unstable"}
    path = tmp_path / "unstable.json"
    serialize.save_json(data, path)
    for args in (("inner", "check", str(path)), ("rank", str(path))):
        res = invoke(*args)
        assert res.exit_code == 2
        assert "UNSTABLE_DENOMINATOR" in res.output
    assert run(["rank", str(path), "-q"]) == 2
    # a zero at the origin is a zero in the open bidisk, and files that do
    # not decode are rejected as input, not reported as internal errors
    one = serialize.poly_to_terms(BiPoly.one())
    bad = {
        "origin.json": {"d": 1, "p": serialize.poly_to_terms(BiPoly.monomial(1, 0)),
                        "Q": [[one]]},
        "empty_q.json": {"d": 2, "Q": [[[]]]},
        "text_coeff.json": {"d": 1, "Q": [[[{"a": 0, "b": 0, "re": "one"}]]]},
    }
    for name, content in bad.items():
        serialize.save_json(content, tmp_path / name)
    (tmp_path / "not_json.json").write_text("Q = 1\n")
    for name in list(bad) + ["not_json.json", "missing.json"]:
        res = invoke("inner", "check", str(tmp_path / name))
        assert res.exit_code == 2, name
        assert res.output.startswith("input rejected: "), name
        assert run(["inner", "check", str(tmp_path / name)]) == 2, name
    assert "UNSTABLE_DENOMINATOR" in invoke("inner", "check", str(tmp_path / "origin.json")).output


# Q = 0.5 z1 + 0.5 / z1 has a negative exponent, which an index would wrap
# onto the top row; a 2 x 2 Q under d = 1 would be cut to its corner; a
# fractional d would be rounded down to 1, and a coefficient or an exponent
# true read as 1.  Each was once read as theta = z1 and passed the check.
MALFORMED = {
    "laurent.json": {"d": 1, "Q": [[[{"a": 1, "b": 0, "re": 0.5},
                                      {"a": -1, "b": 0, "re": 0.5}]]]},
    "oversized_q.json": {"d": 1, "Q": [[[{"a": 1, "b": 0, "re": 1.0}], []],
                                       [[], [{"a": 0, "b": 0, "re": 1.0}]]]},
    "fractional_d.json": {"d": 1.9, "Q": [[[{"a": 1, "b": 0, "re": 1.0}]]]},
    "bool_coeff.json": {"d": 1, "Q": [[[{"a": 1, "b": 0, "re": True}]]]},
    "bool_exponent.json": {"d": 1, "Q": [[[{"a": True, "b": 0, "re": 1.0}]]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_theta_file_exits_2(tmp_path, name):
    path = tmp_path / name
    serialize.save_json(MALFORMED[name], path)
    for args in (("inner", "check", str(path)), ("rank", str(path))):
        res = invoke(*args)
        assert res.exit_code == 2, args
        assert res.output.startswith("input rejected: ValueError: "), args
    with pytest.raises(ValueError):
        serialize.theta_from_json(MALFORMED[name])


def test_inner_expand_writes_table(tmp_path):
    out = tmp_path / "table.json"
    res = invoke("inner", "expand", "scalar_favorite", "--trunc", "6", "6",
                 "--out", str(out))
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["A"] == 6 and data["d"] == 1


@pytest.mark.parametrize("name,trunc,tail,decay", [
    ("scalar_stable4", "0", "0.000e+00", "GEOMETRIC"),
    ("hadamard_deg21", "1", "7.071e-01", "FINITE"),
    ("hadamard_deg21", "2", "7.071e-01", "FINITE"),
    ("scalar_favorite", "3", "1.250e-01", "SLOW"),
])
def test_inner_expand_classifies_decay_past_the_cutoffs(name, trunc, tail, decay):
    # a table this shallow reads FINITE, SLOW, SLOW and GEOMETRIC; the decay
    # column comes from the deep probe, the tail norm from the user's table
    res = invoke("inner", "expand", name, "--trunc", trunc, trunc)
    assert res.exit_code == 0
    assert res.output.splitlines()[1].split() == [name, trunc, trunc, tail, decay]


def test_rank_table_output(tmp_path):
    out = tmp_path / "report.json"
    res = invoke("rank", "hadamard_z1z2", "--schedule", "4,4;6,6;8,8",
                 "--out", str(out))
    assert res.exit_code == 0
    assert res.output.strip().endswith("stabilized_rank: 1, verdict: STABLE")
    data = json.loads(out.read_text())
    assert data["stabilized_rank"] == 1
    assert [lv["rank"] for lv in data["levels"]] == [1, 1, 1]


def test_rank_rejects_bad_schedule():
    res = invoke("rank", "scalar_z1z2", "--schedule", "4,4;4,4;6,6")
    assert res.exit_code == 2
    assert "schedule must increase strictly in both coordinates" in res.output
    res = invoke("rank", "scalar_z1z2", "--schedule", "4,4;6,6")
    assert res.exit_code == 2
    assert "schedule needs at least three levels" in res.output


def test_rank_rejects_negative_schedule():
    assert run(["rank", "hadamard_z1z2", "--schedule", "-2,-2;-1,-1;0,0", "-q"]) == 2
    res = invoke("rank", "hadamard_z1z2", "--schedule", "-2,-2;-1,-1;0,0")
    assert res.exit_code == 2
    assert "negative" in res.output and "INCONCLUSIVE" not in res.output


def test_rank_has_no_pad_option():
    assert run(["rank", "hadamard_z1z2", "--pad", "3", "3", "-q"]) == 2


def test_rank_has_no_tol_option():
    # every rank is counted at the library's one relative tolerance
    assert "--tol" not in invoke("rank", "--help").output
    assert run(["rank", "hadamard_z1z2", "--tol", "1e-6", "-q"]) == 2


def test_truncations_out_of_range_exit_2():
    for args in (("agler", "dims", "scalar_stable4", "--trunc", "-1", "3"),
                 ("agler", "dims", "scalar_stable4", "--trunc", "0", "3"),
                 ("agler", "verify", "scalar_stable4", "--trunc", "3", "-1"),
                 ("inner", "expand", "scalar_stable4", "--trunc", "-1", "3")):
        assert run(list(args) + ["-q"]) == 2
        res = invoke(*args)
        assert res.exit_code == 2 and "--trunc" in res.output
    # the smallest truncations each command accepts still run
    assert run(["agler", "dims", "scalar_stable4", "--trunc", "1", "0", "-q"]) == 0
    assert run(["inner", "expand", "scalar_stable4", "--trunc", "0", "0", "-q"]) == 0


@pytest.mark.parametrize("args,option", [
    (("inner", "check", "hadamard_z1z2", "--grid", "1"), "--grid"),
    (("agler", "verify", "scalar_z1z2", "--trunc", "4", "4", "--samples", "0"), "--samples"),
    (("conjecture", "run", "--kind", "product", "--count", "-2"), "--count"),
    (("conjecture", "run", "--kind", "product", "--d", "0"), "--d"),
    (("conjecture", "run", "--kind", "product", "--m1-cap", "-1"), "--m1-cap"),
    (("conjecture", "run", "--kind", "product", "--m2-cap", "-1"), "--m2-cap"),
    (("agler", "verify", "scalar_z1z2", "--trunc", "4", "4", "--seed", "-1"), "--seed"),
    (("conjecture", "run", "--kind", "product", "--seed", "-1"), "--seed"),
], ids=["grid", "samples", "count", "d", "m1-cap", "m2-cap", "agler-seed", "conjecture-seed"])
def test_count_options_out_of_range_exit_2(tmp_path, args, option):
    if args[0] == "conjecture":
        args += ("--out", str(tmp_path))
    res = invoke(*args)
    assert res.exit_code == 2 and option in res.output
    assert not (tmp_path / "summary.csv").exists()


def test_rank_rejects_unknown_builtin():
    res = invoke("rank", "no_such_function")
    assert res.exit_code == 2


def test_agler_dims_output():
    res = invoke("agler", "dims", "hadamard_deg21", "--trunc", "8", "8")
    assert res.exit_code == 0
    assert "True" in res.output


def test_agler_verify_residual(tmp_path):
    out = tmp_path / "agler.json"
    res = invoke("agler", "verify", "scalar_z1z2", "--trunc", "8", "8",
                 "--samples", "10", "--seed", "1", "--out", str(out))
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["residual"] < 1e-8
    assert data["dims_match"] is True


def test_conjecture_run_writes_records(tmp_path):
    res = invoke("conjecture", "run", "--kind", "diagonal", "--count", "3",
                 "--seed", "4", "--out", str(tmp_path))
    assert res.exit_code == 0
    assert (tmp_path / "summary.csv").exists()
    files = sorted(p.name for p in tmp_path.glob("item*.json"))
    assert len(files) == 3


def test_conjecture_run_conjugated_needs_d2(tmp_path):
    # the conjugated family is 2 x 2; any other --d is a usage error
    args = ["conjecture", "run", "--kind", "conjugated", "--d", "3", "--count", "3",
            "--out", str(tmp_path), "-q"]
    assert run(args) == 2
    res = invoke(*args)
    assert res.exit_code == 2 and "d must be 2" in res.output
    assert not (tmp_path / "summary.csv").exists()


def test_run_helper_exit_codes(tmp_path):
    assert run(["examples", "list"]) == 0
    assert run(["rank", "scalar_z1z2", "--schedule", "oops"]) == 2


def test_expand_roundtrip_matches_in_process(tmp_path):
    import numpy as np
    from bidisklab.taylor import expand
    out = tmp_path / "t.json"
    assert run(["inner", "expand", "hadamard_z1z2", "--trunc", "5", "5",
                "--out", str(out), "-q"]) == 0
    back = serialize.taylor_from_json(serialize.load_json(out))
    direct = expand(builtin("hadamard_z1z2"), 5, 5)
    assert (back.d, back.A, back.B) == (direct.d, direct.A, direct.B)
    assert np.array_equal(back.coeffs, direct.coeffs)
    assert (back.tail_norm, back.finite_support) == (direct.tail_norm, direct.finite_support)
