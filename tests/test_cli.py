"""End-to-end command-line behavior: formats, exit codes, determinism."""

import json

import pytest

from lexgb.cli import main
from lexgb.field import PrimeField
from lexgb.poly import parse_polynomial

F101 = PrimeField(101)

WORKED_POINTS = {"p": 101, "points": [[0, 0, 0], [1, 0, 0], [1, 0, 1]], "seed": None}


def P(text):
    return parse_polynomial(F101, text)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_gen_points_stdout(capsys):
    assert main(["gen-points", "--n", "4", "--seed", "9"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["p"] == 101
    assert data["seed"] == 9
    assert len(data["points"]) == 4
    assert "generated 4 points" in captured.err


def test_gen_points_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-points", "--n", "6", "--seed", "3", "-o", str(a)]) == 0
    assert main(["gen-points", "--n", "6", "--seed", "3", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_points_rejects_bad_count(capsys):
    assert main(["gen-points", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_ideal_recipe(capsys):
    assert main(["gen-ideal", "--kind", "vanishing-points", "--n", "3", "--seed", "7"]) == 0
    data = read_json(capsys)
    assert data == {"kind": "vanishing-points", "p": 101, "seed": 7, "n_points": 3, "degrees": None}


def test_gen_ideal_triangular_defaults(capsys):
    assert main(["gen-ideal", "--kind", "random-triangular"]) == 0
    assert read_json(capsys)["degrees"] == [2, 2, 2]


def test_gen_ideal_usage_errors(capsys):
    assert main(["gen-ideal", "--kind", "vanishing-points"]) == 2
    assert main(["gen-ideal", "--kind", "random-triangular", "--degrees", "2,2"]) == 2
    capsys.readouterr()


def test_gb_from_points(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["gb", src, "--text"]) == 0
    data = read_json(capsys)
    assert data["p"] == 101
    assert data["ell2"] == 2
    assert data["zero_dim"] is True
    assert data["radical"] is True
    assert [g["text"] for g in data["basis"]] == [
        "x^2 + 100*x",
        "y",
        "x*z + 100*z",
        "z^2 + 100*z",
    ]


def test_gb_from_generators(tmp_path, capsys):
    src = write_json(
        tmp_path / "gens.json",
        {"p": 101, "generators": [P("x*y + 100").to_dict(), P("y^2 + 100").to_dict()]},
    )
    assert main(["gb", src, "--text"]) == 0
    data = read_json(capsys)
    assert [g["text"] for g in data["basis"]] == ["x^2 + 100", "y + 100*x"]
    assert data["radical"] is False


def test_gb_from_recipe(tmp_path, capsys):
    src = write_json(
        tmp_path / "recipe.json",
        {"kind": "random-triangular", "p": 101, "seed": 5, "degrees": [3, 2, 2]},
    )
    assert main(["gb", src]) == 0
    data = read_json(capsys)
    assert len(data["basis"]) == 3
    assert data["zero_dim"] is True


def test_gb_unit_ideal_flag(tmp_path, capsys):
    src = write_json(
        tmp_path / "gens.json",
        {"p": 101, "generators": [P("x").to_dict(), P("x + 100").to_dict()]},
    )
    assert main(["gb", src]) == 0
    data = read_json(capsys)
    assert data["unit_ideal"] is True
    assert data["zero_dim"] is False
    assert data["ell2"] is None


def test_gb_empty_generator_list(tmp_path, capsys):
    src = write_json(tmp_path / "gens.json", {"p": 101, "generators": []})
    assert main(["gb", src]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_pass(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src]) == 0
    data = read_json(capsys)
    assert data["all_pass"] is True
    assert len(data["checks"]) == 11
    assert all(c["verdict"] == "pass" for c in data["checks"])
    assert data["instance"] is None


def test_verify_check_filter(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src, "--checks", "lazard_2d", "--text"]) == 0
    data = read_json(capsys)
    assert [c["name"] for c in data["checks"]] == ["basis_integrity", "structure", "lazard_2d"]
    assert data["basis"][0] == "x^2 + 100*x"


def test_verify_unknown_check(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src, "--checks", "lazard_3d"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_verify_tampered_basis_fails(tmp_path, capsys):
    elems = [P("x^2 + 100*x"), P("y"), P("x*z + 5*z"), P("z^2 + 100*z")]
    src = write_json(
        tmp_path / "tampered.json",
        {"p": 101, "basis": [g.to_dict() for g in elems], "radical": False, "unit_ideal": False},
    )
    assert main(["verify", src]) == 1
    data = read_json(capsys)
    assert data["all_pass"] is False
    assert data["checks"][0]["verdict"] == "fail"


def test_solve_round_trip(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["solve", src]) == 0
    data = read_json(capsys)
    assert data["points"] == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]
    assert data["p"] == 101


def test_solve_coordinate_ideal(tmp_path, capsys):
    src = write_json(
        tmp_path / "gens.json",
        {"p": 101, "generators": [P("x").to_dict(), P("y").to_dict(), P("z").to_dict()]},
    )
    assert main(["solve", src]) == 0
    assert read_json(capsys)["points"] == [[0, 0, 0]]


def test_solve_nonsplit_exits_one(tmp_path, capsys):
    src = write_json(
        tmp_path / "gens.json",
        {"p": 101, "generators": [P("x^2 + 99").to_dict(), P("y").to_dict(), P("z").to_dict()]},
    )
    assert main(["solve", src]) == 1
    assert "does not split" in capsys.readouterr().err


def test_solve_nonsplit_small_prime(tmp_path, capsys):
    F7 = PrimeField(7)
    gens = [parse_polynomial(F7, t).to_dict() for t in ("x^2 + 1", "y", "z")]
    src = write_json(tmp_path / "gens7.json", {"p": 7, "generators": gens})
    # -1 is not a square mod 7, so the eliminant has no roots there
    assert main(["solve", src]) == 1
    assert "does not split" in capsys.readouterr().err


def test_campaign_small(tmp_path):
    out = tmp_path / "summary.json"
    assert (
        main(
            [
                "campaign",
                "--radical", "3",
                "--nonradical", "2",
                "--points-max", "4",
                "--seed", "17",
                "-o", str(out),
            ]
        )
        == 0
    )
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert data["radical"]["count"] == 3
    assert data["nonradical"]["count"] == 2


def test_campaign_empty(capsys):
    assert main(["campaign", "--radical", "0", "--nonradical", "0"]) == 0
    data = read_json(capsys)
    assert data["all_pass"] is True
    assert data["radical"]["count"] == 0
    assert data["nonradical"]["count"] == 0


def test_campaign_rejects_bad_config(capsys):
    assert main(["campaign", "--points-min", "9", "--points-max", "4"]) == 2
    capsys.readouterr()


def test_missing_input_file(capsys):
    assert main(["verify", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    capsys.readouterr()


MALFORMED = {
    "empty-basis": {"p": 101, "basis": []},
    "term-without-exponents": {"p": 101, "basis": [{"terms": [{"c": 1}]}]},
    "float-coefficient": {"p": 101, "generators": [{"terms": [{"c": 1.5, "e": [1, 0, 0]}]}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(tmp_path, capsys, case):
    src = write_json(tmp_path / "bad.json", MALFORMED[case])
    for command in ("verify", "gb", "solve"):
        assert main([command, src]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_undispatchable_input(tmp_path, capsys):
    src = write_json(tmp_path / "odd.json", {"hello": 1})
    assert main(["gb", src]) == 2
    assert "must contain" in capsys.readouterr().err
