"""End-to-end command-line behavior: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexgb import cli
from lexgb.campaign import CampaignConfig
from lexgb.checks import CHECK_ORDER
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
    assert capsys.readouterr().err == "error: point count 0 outside [1, 1030301]\n"


def test_gen_ideal_recipe(capsys):
    assert main(["gen-ideal", "--kind", "vanishing-points", "--n", "3", "--seed", "7"]) == 0
    data = read_json(capsys)
    assert data == {"kind": "vanishing-points", "p": 101, "seed": 7, "n_points": 3, "degrees": None}


def test_gen_ideal_triangular_defaults(capsys):
    assert main(["gen-ideal", "--kind", "random-triangular"]) == 0
    assert read_json(capsys)["degrees"] == [2, 2, 2]


def test_gen_ideal_usage_errors(capsys):
    assert main(["gen-ideal", "--kind", "vanishing-points"]) == 2
    assert capsys.readouterr().err == "error: vanishing-points needs a point count\n"
    assert main(["gen-ideal", "--kind", "random-triangular", "--degrees", "2,2"]) == 2
    assert capsys.readouterr().err == "error: --degrees wants three comma-separated integers\n"
    assert main(["gen-ideal", "--kind", "random-triangular", "--degrees", "2,a,2"]) == 2
    assert capsys.readouterr().err == "error: invalid literal for int() with base 10: 'a'\n"
    for n in ("-3", "0"):
        assert main(["gen-ideal", "--kind", "squared-vanishing", "--n", n]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: squared-vanishing needs a positive point count, got {n}\n")


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


def test_verify_and_solve_at_a_61_bit_prime(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division would need 7.6 * 10^8 steps on it
    pts = [[1, 2, 3], [1, 2, 9], [1, 7, 8], [4, 5, 6]]
    src = write_json(tmp_path / "big.json", {"p": 2**61 - 1, "points": pts[:1]})
    assert main(["verify", src]) == 0
    assert read_json(capsys)["all_pass"] is True
    src = write_json(tmp_path / "big4.json", {"p": 2**61 - 1, "points": pts})
    assert main(["solve", src]) == 0
    assert read_json(capsys)["points"] == pts


def test_verify_check_filter(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src, "--checks", "lazard_2d", "--text"]) == 0
    data = read_json(capsys)
    assert [c["name"] for c in data["checks"]] == ["basis_integrity", "structure", "lazard_2d"]
    assert data["basis"][0] == "x^2 + 100*x"


def test_an_empty_check_list_selects_every_check(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src, "--checks", ""]) == 0
    assert [c["name"] for c in read_json(capsys)["checks"]] == list(CHECK_ORDER)
    argv = ["campaign", "--radical", "2", "--nonradical", "1", "--seed", "8"]
    assert main([*argv, "--checks", ""]) == 0
    summary = read_json(capsys)
    assert summary["config"]["checks"] is None
    assert list(summary["radical"]["checks"]) == list(CHECK_ORDER)
    assert main([*argv, "--checks", "lazard_2d,structure"]) == 0
    summary = read_json(capsys)
    assert summary["config"]["checks"] == ["lazard_2d", "structure"]
    assert list(summary["radical"]["checks"]) == ["basis_integrity", "structure", "lazard_2d"]


def test_campaign_unknown_check(capsys):
    assert main(["campaign", "--radical", "1", "--nonradical", "0", "--checks", "lazard_2d,lazard_3d"]) == 2
    assert capsys.readouterr().err == "error: unknown checks: ['lazard_3d']\n"


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


def test_solve_nonsplit_slice_names_it(tmp_path, capsys):
    # the slice z^3 + 99*z = z * (z^2 + 99) has a root and a factor without
    gens = [P(t).to_dict() for t in ("x", "y", "z^3 + 99*z")]
    src = write_json(tmp_path / "gens.json", {"p": 101, "generators": gens})
    assert main(["solve", src]) == 1
    assert capsys.readouterr().err == "error: z^3 + 99*z does not split: a degree-2 factor has no roots\n"


def test_solve_nonsplit_small_prime(tmp_path, capsys):
    F7 = PrimeField(7)
    gens = [parse_polynomial(F7, t).to_dict() for t in ("x^2 + 1", "y", "z")]
    src = write_json(tmp_path / "gens7.json", {"p": 7, "generators": gens})
    # -1 is not a square mod 7, so the eliminant has no roots there
    assert main(["solve", src]) == 1
    assert "does not split" in capsys.readouterr().err


def test_input_commands_take_no_prime_flag(tmp_path, capsys):
    # the modulus of gb, verify and solve is the input file's "p"; a --prime
    # that silently lost to it would solve {x^2 + 1, y, z} over F_101, not F_5
    src = write_json(
        tmp_path / "gens.json",
        {"p": 101, "generators": [P("x^2 + 1").to_dict(), P("y").to_dict(), P("z").to_dict()]},
    )
    for command in ("gb", "verify", "solve"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--prime", "5", src])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prime" in capsys.readouterr().err


def test_a_stored_unit_ideal_must_agree_with_the_elements(tmp_path, capsys):
    # (0, 0, 0) solves x^2, x*y, y^2, z, so it is not the unit ideal; and 3
    # is a nonzero constant, so it is: every command refuses both files alike
    F7 = PrimeField(7)
    elems = [parse_polynomial(F7, t).to_dict() for t in ("x^2", "x*y", "y^2", "z")]
    flagged = write_json(tmp_path / "flagged.json", {"p": 7, "unit_ideal": True, "basis": elems})
    three = [parse_polynomial(F7, "3").to_dict()]
    unflagged = write_json(tmp_path / "unflagged.json", {"p": 7, "unit_ideal": False, "basis": three})
    for src, some in ((flagged, "none"), (unflagged, "one")):
        for command in ("gb", "verify", "solve"):
            assert main([command, src]) == 2
            captured = capsys.readouterr()
            message = f"'unit_ideal' must agree with the elements, {some} of which is a nonzero constant"
            assert (captured.out, captured.err) == ("", f"error: {message}\n")

    # a flag that agrees, or none at all, is read as before
    unit = {"p": 7, "unit_ideal": True, "basis": [parse_polynomial(F7, "1").to_dict()]}
    assert main(["solve", write_json(tmp_path / "unit.json", unit)]) == 0
    assert read_json(capsys)["points"] == []
    assert main(["gb", write_json(tmp_path / "bare.json", {"p": 7, "basis": elems})]) == 0
    data = read_json(capsys)
    assert (data["ell2"], data["zero_dim"], data["unit_ideal"]) == (3, True, False)


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


def test_python_dash_m_runs_the_cli(capsys):
    args = ["campaign", "--radical", "3", "--nonradical", "2", "--points-max", "4", "--seed", "17"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "lexgb", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert main(args) == 0
    assert done.stdout == capsys.readouterr().out


def test_campaign_empty(capsys):
    assert main(["campaign", "--radical", "0", "--nonradical", "0"]) == 0
    data = read_json(capsys)
    assert data["all_pass"] is True
    assert data["radical"]["count"] == 0
    assert data["nonradical"]["count"] == 0


def test_a_bare_campaign_runs_the_default_config(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_campaign", lambda config: seen.append(config) or {"all_pass": True})
    monkeypatch.setattr(cli, "_emit", lambda data, path: None)
    assert main(["campaign"]) == 0
    assert seen == [CampaignConfig()]


def test_campaign_rejects_bad_config(capsys):
    assert main(["campaign", "--points-min", "9", "--points-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: point-count range must sit inside [1, 12]\n"
    assert captured.out == ""


def test_campaign_rejects_more_points_than_the_prime_holds(capsys):
    # F_2^3 has 8 points: the range is refused before any instance is built
    argv = ["campaign", "--prime", "2", "--points-max", "9", "--radical", "20", "--nonradical", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: point-count range [1, 9] exceeds the 8 points of F_2^3\n"
    assert captured.out == ""


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
    "string-coefficient": {"p": 101, "generators": [{"terms": [{"c": "3/4", "e": [1, 0, 0]}]}]},
    "basis-boolean-coefficient": {"p": 101, "basis": [{"terms": [{"c": True, "e": [1, 0, 0]}]}]},
    "generators-boolean-coefficient": {"p": 101, "generators": [{"terms": [{"c": True, "e": [0, 1, 0]}]}]},
    "points-string-prime": {"p": "x", "points": [[1, 2, 3]]},
    "points-zero-prime": {"p": 0, "points": [[1, 2, 3]]},
    "points-not-a-list": {"p": 101, "points": 5},
    "point-not-a-list": {"p": 101, "points": [5]},
    "point-null": {"p": 101, "points": [None]},
    "point-float-coordinate": {"p": 101, "points": [[1.5, 2, 3]]},
    "recipe-string-count": {"kind": "vanishing-points", "p": 101, "seed": 0, "n_points": "3"},
    "recipe-float-count": {"kind": "vanishing-points", "p": 101, "seed": 0, "n_points": 2.5},
    "recipe-float-seed": {"kind": "vanishing-points", "p": 101, "seed": 1.5, "n_points": 3},
    "recipe-string-seed": {"kind": "vanishing-points", "p": 101, "seed": "s", "n_points": 3},
    "recipe-scalar-degrees": {"kind": "random-triangular", "p": 101, "seed": 0, "degrees": 5},
    "recipe-string-degree": {"kind": "random-triangular", "p": 101, "seed": 0, "degrees": ["a", 1, 1]},
    "generators-not-a-list": {"generators": 5},
    "basis-string-radical": {"p": 101, "basis": [{"terms": [{"c": 1, "e": [1, 0, 0]}]}], "radical": "no"},
    "basis-integer-radical": {"p": 101, "basis": [{"terms": [{"c": 1, "e": [1, 0, 0]}]}], "radical": 1},
    "basis-string-unit-flag": {"p": 101, "basis": [{"terms": [{"c": 1, "e": [0, 0, 0]}]}], "unit_ideal": "false"},
    # [x^(10^20), y, z]: the dense univariate code cannot index such an exponent
    "exponent-beyond-index": {
        "p": 101,
        "basis": [{"terms": [{"c": 1, "e": e}]} for e in ([10**20, 0, 0], [0, 1, 0], [0, 0, 1])],
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(tmp_path, capsys, case):
    src = write_json(tmp_path / "bad.json", MALFORMED[case])
    for command in ("verify", "gb", "solve"):
        assert main([command, src]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# exponents that fit an index but not a dense list: each basis, and the
# exit code of verify and of solve on it; no dense list or power table
# passes univariate.DENSE_CAP slots, so nothing of that size is allocated
TOO_DENSE = {
    # g_1's coefficient list, for its roots
    "dense-g1": (["x^1000000000", "y", "z"], 2, 2),
    # the power table of the roots of g_1; verify stops at the tail x^(10^9),
    # which x^2 divides, so the basis fails basis_integrity
    "power-table": (["x^2 - 1", "y + x^1000000000", "z"], 1, 2),
    # the dense z-list of the slice at (1, 1); verify settles it from the heads
    "slice": (["x - 1", "y - 1", "z^1000000000"], 0, 2),
    # lc_x(g_1)'s coefficient list in the chain checks
    "chain": (["x^1000000000", "x*y", "y^2", "z"], 2, 2),
}


@pytest.mark.parametrize("case", sorted(TOO_DENSE))
def test_an_exponent_too_large_to_make_dense_exits_at_once(tmp_path, capsys, case):
    texts, verify_code, solve_code = TOO_DENSE[case]
    src = write_json(tmp_path / "basis.json", {"p": 101, "basis": [P(t).to_dict() for t in texts]})
    for command, code in (("verify", verify_code), ("solve", solve_code)):
        assert main([command, src]) == code, command
        err = capsys.readouterr().err
        if code == 2:
            assert err == "error: exponent 1000000000 is too large to make dense (at most 1048576 slots)\n"


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # json.load raises RecursionError on nesting this deep
    src = tmp_path / "deep.json"
    src.write_text("[" * 5000 + "]" * 5000)
    for command in ("verify", "gb", "solve"):
        assert main([command, str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_undispatchable_input(tmp_path, capsys):
    src = write_json(tmp_path / "odd.json", {"hello": 1})
    assert main(["gb", src]) == 2
    assert "must contain" in capsys.readouterr().err


def test_an_empty_checks_option_runs_every_check(tmp_path, capsys):
    src = write_json(tmp_path / "pts.json", WORKED_POINTS)
    assert main(["verify", src, "--checks", ""]) == 0
    assert [c["name"] for c in read_json(capsys)["checks"]] == list(CHECK_ORDER)
