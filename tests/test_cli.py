import json

import pytest

from bgops import cli
from bgops.cli import EXIT_ERROR, EXIT_INTERNAL, EXIT_NONZERO, EXIT_ZERO, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out) if out.strip() else None, err


UNIT_Z2 = '{"generators":[{"name":"x","degree":1}],"terms":[{}]}'
UNIT_T1 = '{"generators":[{"name":"y","degree":2}],"terms":[{}]}'


def test_alpha_nonzero(capsys):
    code, doc, _ = run_json(
        capsys, "alpha", "--group", "z2^1", "-k", "2", "--a", "[1,2]", "--b", UNIT_Z2
    )
    assert code == EXIT_NONZERO
    assert doc["zero"] is False
    assert doc["result"]["terms"] == [{"x": 3}]


def test_alpha_zero_result(capsys):
    code, doc, _ = run_json(
        capsys, "alpha", "--group", "t^1", "-k", "1", "--a", "[2]", "--b", UNIT_T1
    )
    assert code == EXIT_ZERO
    assert doc["zero"] is True


def test_alpha_unsupported_pair(capsys):
    code, out, err = run(
        capsys, "alpha", "--group", "su2", "-k", "2", "--a", "[1,1]", "--b", '{"su2":[0]}'
    )
    assert code == EXIT_ERROR
    assert "no computed closed form" in err


def test_alpha_bad_group(capsys):
    code, _, err = run(
        capsys, "alpha", "--group", "d8", "-k", "1", "--a", "[1]", "--b", UNIT_Z2
    )
    assert code == EXIT_ERROR
    assert "not 2 mod 4" in err


def test_alpha_from_file(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(
        json.dumps(
            {"b": {"generators": [{"name": "x", "degree": 1}], "terms": [{"x": 4}]}}
        )
    )
    code, doc, _ = run_json(
        capsys, "alpha", "--group", "z2^1", "-k", "1", "--a", "[3]", "--in", str(path)
    )
    assert code == EXIT_NONZERO
    assert doc["result"]["terms"] == [{"x": 7}]


def test_compose_factors_from_file(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(
        json.dumps(
            {
                "factors": [
                    {"n": 2, "a": [{"gens": [[1]]}]},
                    {"n": 2, "a": [{"gens": [[2]]}]},
                ]
            }
        )
    )
    code, doc, _ = run_json(
        capsys, "compose", "--group", "z2^1", "--in", str(path), "--b", UNIT_Z2
    )
    assert code == EXIT_NONZERO
    assert doc["result"]["terms"] == [{"x": 3}]


def test_in_document_is_opened_once_per_command(tmp_path, capsys, monkeypatch):
    # two inputs read from one --in file must come from one reading of it
    unit = json.loads(UNIT_Z2)
    factors = [{"n": 2, "a": [{"gens": [[1]]}]}, {"n": 2, "a": [{"gens": [[2]]}]}]
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"a": [3], "b": unit, "factors": factors}))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for argv in (
        ["alpha", "--group", "z2^1", "-k", "1"],
        ["compose", "--group", "z2^1"],
        ["witness", "--group", "z2^1", "-k", "1"],
    ):
        opened.clear()
        code, _, err = run(capsys, *argv, "--in", str(path))
        assert code == EXIT_NONZERO, (argv, err)
        assert opened == [str(path)], argv
    path.write_text(json.dumps({"a": [{"gens": [[1]]}], "b": unit}))
    opened.clear()
    code, _, err = run(capsys, "phi", "--group", "z2^1", "-n", "2", "--in", str(path))
    assert code in (EXIT_NONZERO, EXIT_ZERO), err
    assert opened == [str(path)]


def test_phi(capsys):
    code, doc, _ = run_json(
        capsys,
        "phi",
        "--group",
        "z2^1",
        "-n",
        "2",
        "--a",
        '[{"gens":[[1]]}]',
        "--b",
        UNIT_Z2,
    )
    assert code == EXIT_NONZERO
    assert doc["result"]["terms"] == [{"x": 1}]


def test_compose(capsys):
    factors = '[{"n":2,"a":[{"gens":[[1]]}]},{"n":2,"a":[{"gens":[[2]]}]}]'
    code, doc, _ = run_json(
        capsys, "compose", "--group", "z2^1", "--factors", factors, "--b", UNIT_Z2
    )
    assert code == EXIT_NONZERO
    assert doc["result"]["terms"] == [{"x": 3}]


def test_acount(capsys):
    code, doc, _ = run_json(capsys, "acount", "--rows", "3", "--cols", "1,2", "--mode", "exact")
    assert code == EXIT_NONZERO
    assert doc["count"] == 1
    code, doc, _ = run_json(capsys, "acount", "--rows", "1,1", "--cols", "2")
    assert code == EXIT_ZERO
    assert doc["count"] == 0
    wide = "31,31,31,31"
    code, out, _ = run(capsys, "acount", "--rows", wide, "--cols", wide, "--mode", "exact")
    assert code == EXIT_NONZERO
    assert out == "83520\n"


def test_witness(capsys):
    code, doc, _ = run_json(capsys, "witness", "--group", "su2", "-k", "1", "--a", "[5]")
    assert code == EXIT_NONZERO
    assert doc["witness"] == {"su2": [0]}
    code, doc, _ = run_json(capsys, "witness", "--group", "su2", "-k", "1", "--a", "[4]")
    assert code == EXIT_ZERO
    assert doc["witness"] is None
    assert doc["certified_trivial"] is True


def test_certify_and_flags_after_subcommand(capsys):
    factors = '[{"n":2,"a":[{"gens":[[1]]}]}]'
    code, doc, _ = run_json(
        capsys, "certify", "--target", "AutTwisted", "--group", "z2^1", "--factors", factors
    )
    assert code == EXIT_NONZERO
    assert doc["version"] == "v1"
    assert doc["target"] == "AutTwisted"
    assert doc["N"] == 1
    assert doc["degree"] == 0
    # the json flag may come after the subcommand as well
    code2 = main(
        ["certify", "--target", "AutTwisted", "--group", "z2^1", "--factors", factors, "--json"]
    )
    out = capsys.readouterr().out
    assert code2 == EXIT_NONZERO
    assert json.loads(out)["target"] == "AutTwisted"


def test_certify_hypothesis_violation(capsys):
    factors = '[{"n":2,"a":[{"gens":[[1]]}]}]'
    code, _, err = run(
        capsys, "certify", "--target", "AffF2", "--group", "t^1", "--factors", factors
    )
    assert code == EXIT_ERROR
    assert "elementary abelian" in err


def test_family(capsys):
    code, doc, _ = run_json(capsys, "family", "--u", "1,2", "--f", "1,2")
    assert code == EXIT_NONZERO
    assert doc["N"] == 2
    assert len(doc["certificates"]) == 7
    code, _, err = run(capsys, "family", "--u", "1,3", "--f", "1,2")
    assert code == EXIT_ERROR
    assert "share a 1" in err


def test_stable_image(capsys):
    factors = '[{"n":2,"a":[{"gens":[[1]]}]}]'
    code, doc, _ = run_json(capsys, "stable-image", "--factors", factors, "--k-degree", "1")
    assert code == EXIT_NONZERO
    assert doc["L"] == 2
    assert doc["image"] == [{"gens": [[1]]}]


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "--json", "oracle-check", "--degree-bound", "2")
    assert code == EXIT_NONZERO
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["pass"] for line in lines)
    names = {line["check"] for line in lines}
    assert "orbit_census" in names
    assert "compsum_vs_closed_form" in names
    assert "t3_identity" in names


def test_t3_verify_command(capsys):
    code, doc, _ = run_json(capsys, "t3-verify", "--n1", "2", "--n2", "2")
    assert code == EXIT_NONZERO
    assert doc["pass"] is True


def test_missing_input_is_an_error(capsys):
    code, _, err = run(capsys, "alpha", "--group", "z2^1", "-k", "1", "--b", UNIT_Z2)
    assert code == EXIT_ERROR
    assert "via --in" in err


def test_internal_invariant_failure_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("orbit sum did not produce a cycle")

    monkeypatch.setattr(cli, "_cmd_t3_verify", broken)
    code, out, err = run(capsys, "t3-verify", "--n1", "0", "--n2", "0")
    assert code == EXIT_INTERNAL == 3
    assert EXIT_INTERNAL not in (EXIT_NONZERO, EXIT_ZERO, EXIT_ERROR)
    assert out == ""
    assert "internal error: orbit sum did not produce a cycle" in err


# malformed class documents: each exits 2 with a message that says what is
# expected, not a bare KeyError or TypeError
MALFORMED_B = [
    ("z2", "[1]", "expected a JSON object for a class over z2^1"),
    ("z2", '{"su2": 3}', 'expected a class of the shape {"generators": '),
    ("z2", '{"terms": [{}]}', 'expected a class of the shape {"generators": '),
    ("su2", '{"su2": 3}', 'expected a class of the shape {"su2": [M, ...]} for su2'),
    ("(z2)x(su2)", '{"tensor_terms": 1}', 'expected a class of the shape {"group": G, "tensor_terms"'),
    # a float or a bool where an integer belongs
    ("su2", '{"su2": [2.7]}', 'expected a class of the shape {"su2": [M, ...]} for su2'),
    ("(z2)x(su2)", '{"tensor_terms": [[[2.5], 0]]}',
     'expected a class of the shape {"group": G, "tensor_terms"'),
    ("z2", '{"generators": [{"name": "x", "degree": 1}], "terms": [{"x": 2.7}]}',
     'expected a class of the shape {"generators": '),
    ("z2", '{"generators": [{"name": "x", "degree": true}], "terms": [{"x": 1}]}',
     'expected a class of the shape {"generators": '),
]


@pytest.mark.parametrize("group,b,message", MALFORMED_B)
def test_malformed_class_json_names_the_expected_shape(capsys, group, b, message):
    code, _, err = run(capsys, "alpha", "--group", group, "-k", "1", "--a", "[1]", "--b", b)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {message}"), err


def test_class_written_for_another_group_is_rejected(capsys):
    b = '{"group": "su2", "tensor_terms": [[[0], 0]]}'
    code, _, err = run(capsys, "alpha", "--group", "(z2)x(su2)", "-k", "1", "--a", "[1]", "--b", b)
    assert code == EXIT_ERROR
    assert err.startswith("error: the class is written for su2, not for (z2^1)x(su2)"), err
    # the same document names its own group in another spelling
    b = '{"group": "(z2^1) x (su2)", "tensor_terms": [[[0], 0]]}'
    code, _, _ = run(capsys, "alpha", "--group", "(z2)x(su2)", "-k", "1", "--a", "[2]", "--b", b)
    assert code == EXIT_NONZERO


# malformed source classes, symmetric-group classes and factor lists:
# each exits 2 with the expected shape, not a bare TypeError or KeyError
MALFORMED_INPUTS = [
    (["witness", "--group", "z2", "-k", "1", "--a", "3"], "expected a source class of the shape"),
    (["alpha", "--group", "z2", "-k", "1", "--a", '"x"', "--b", UNIT_Z2],
     "expected a source class of the shape"),
    (["phi", "--group", "z2", "-n", "2", "--a", '{"gens": [[1]]}', "--b", UNIT_Z2],
     'expected a class of the shape [{"gens": '),
    (["phi", "--group", "z2", "-n", "2", "--a", '[{"gens": 1}]', "--b", UNIT_Z2],
     'expected a class of the shape [{"gens": '),
]
MALFORMED_FACTORS = ['[{"m": 2}]', '{"n": 2}', "[[2]]", '[{"n": true, "a": []}]']
FACTOR_COMMANDS = [
    ["certify", "--target", "HolOrdinary", "--group", "z2"],
    ["compose", "--group", "z2", "--b", UNIT_Z2],
    ["stable-image", "--k-degree", "1"],
]
MALFORMED_INPUTS += [
    (command + ["--factors", factors], 'expected a factor list of the shape [{"n": N, "a": CLASS}')
    for factors in MALFORMED_FACTORS
    for command in FACTOR_COMMANDS
]
MALFORMED_INPUTS += [
    # a float or a bool where an integer belongs
    (["witness", "--group", "z2", "-k", "1", "--a", "[true]"], "expected a source class of the shape"),
    (["witness", "--group", "z2", "-k", "1", "--a", "[[2.7]]"], "expected a source class of the shape"),
    (["witness", "--group", "z2", "-k", "1", "--a",
      '{"generators": [{"name": "x1", "degree": 1}], "terms": [{"x1": 2.7}]}'],
     'expected a class of the shape {"generators": '),
    (["phi", "--group", "z2", "-n", "2", "--a", '[{"circ": [[2.7]]}]', "--b", UNIT_Z2],
     'expected a class of the shape [{"gens": '),
    (["phi", "--group", "z2", "-n", "2", "--a", '[{"gens": [[2.7]]}]', "--b", UNIT_Z2],
     'expected a class of the shape [{"gens": '),
    (["phi", "--group", "z2", "-n", "2", "--a", '[{"gens": [[true]]}]', "--b", UNIT_Z2],
     'expected a class of the shape [{"gens": '),
]


@pytest.mark.parametrize("argv,message", MALFORMED_INPUTS)
def test_malformed_input_names_the_expected_shape(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {message}"), err
