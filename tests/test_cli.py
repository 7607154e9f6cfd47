import io
import json
import subprocess
import sys

import pytest

from azumaya import jsonio
from azumaya.cli import canonical_json, dispatch, main
from azumaya.jsonio import InputError
from azumaya.scalars import gr
from fractions import Fraction


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "azumaya", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_scalar_parse_formats():
    assert jsonio.parse_scalar(3) == gr(3)
    assert jsonio.parse_scalar("1/2") == gr(Fraction(1, 2))
    assert jsonio.parse_scalar("-i") == gr(0, -1)
    assert jsonio.parse_scalar("1/2-3/4i") == gr(Fraction(1, 2), Fraction(-3, 4))
    assert jsonio.parse_scalar("0+1i") == gr(0, 1)
    assert jsonio.parse_scalar("3i") == gr(0, 3)
    assert jsonio.parse_scalar({"re": "2/4", "im": "-1"}) == gr(Fraction(1, 2), -1)
    # decimal strings are exact; float JSON numbers are not accepted
    assert jsonio.parse_scalar("1.5") == gr(Fraction(3, 2))
    with pytest.raises(InputError):
        jsonio.parse_scalar(1.5)
    with pytest.raises(InputError):
        jsonio.parse_scalar(None)


def test_scalar_json_roundtrip():
    for s in (gr(0), gr(-4), gr(Fraction(2, 3)), gr(Fraction(1, 2), Fraction(-3, 4)), gr(0, 1)):
        assert jsonio.parse_scalar(jsonio.scalar_json(s)) == s
        assert jsonio.parse_scalar(jsonio.scalar_string(s)) == s
    assert jsonio.scalar_json(gr(5)) == 5
    assert jsonio.scalar_json(gr(Fraction(1, 2))) == "1/2"


def test_hilbert_chow_pinned_output():
    out = dispatch(("hilbert-chow",), [[0, 1], [0, 0]])
    assert canonical_json(out) == '{"char_poly":[0,0,1],"roots":[{"mult":2,"root":"0"}]}'


def test_torus_class_pinned_output():
    payload = {
        "tau": "0+1i",
        "components": [
            {"class": [1, 0], "d": 1},
            {"class": [1, 0], "d": 1},
            {"class": [1, 0], "d": 2},
        ],
    }
    assert dispatch(("torus", "class"), payload) == {"surrogate": [4, 3, 0]}


def test_exit_codes():
    code, out = run_cli(["hilbert-chow", "--input", "-"], stdin="[[0,1],[0,0]]")
    assert code == 0 and json.loads(out)["roots"][0]["mult"] == 2

    code, out = run_cli(["rep-check", "--input", "-"], stdin="{not json")
    assert code == 2 and json.loads(out)["error"] == "malformed-input"

    payload = json.dumps({"A": [[[], []], [[], [1]]], "lambda": 1, "bhat": [1, 0, 0, 0]})
    code, out = run_cli(["higgsing", "solve", "--input", "-"], stdin=payload)
    assert code == 1 and json.loads(out)["error"] == "solvability-violated"

    # non-split branch classification is a domain error, exit 1
    payload = json.dumps({"A": [[[], []], [[], []]], "lambda": 1, "bhat": [0, 2, 1, 0]})
    code, out = run_cli(["higgsing", "solve", "--input", "-"], stdin=payload)
    assert code == 1 and json.loads(out)["error"] == "spectrum-not-split"


def test_inline_flags():
    code, out = run_cli(
        [
            "higgsing",
            "solve",
            "--A",
            "[[[],[1]],[[],[]]]",
            "--lambda",
            "1",
            "--bhat",
            "[1,0,0,0]",
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["residual_zero"] and data["branch"]["case"] == "a"

    code, out = run_cli(["spectral-curve", "--phi", "[[[],[1]],[[0,1],[]]]"])
    assert code == 0
    assert json.loads(out)["curve"] == [
        {"coef": -1, "exps": [1, 0]},
        {"coef": 1, "exps": [0, 2]},
    ]


def test_morphism_roundtrip():
    payload = {
        "tau": {"re": 0, "im": 1},
        "components": [
            {"class": [1, 0], "d": 2, "wrap": 3, "offset": "1/2", "fiber_rank": 2}
        ],
    }
    phi = jsonio.parse_morphism(payload)
    assert phi.rank == 4
    again = jsonio.parse_morphism(jsonio.morphism_json(phi))
    assert jsonio.morphism_json(again) == jsonio.morphism_json(phi)


def test_unknown_command_rejected():
    with pytest.raises(InputError):
        dispatch(("no-such-command",), {})


def test_main_returns_zero_on_scenarios():
    assert main(["scenario", "run-all"]) == 0


def test_weyl_and_orbit_cli():
    code, out = run_cli(["weyl-check", "--N", "9"])
    assert code == 0 and json.loads(out)["ok"] is True
    payload = json.dumps(
        {
            "j1": [{"point": ["0"], "partition": [1, 1, 1]}],
            "j2": [{"point": ["0"], "partition": [3]}],
        }
    )
    code, out = run_cli(["orbit-compare", "--input", "-"], stdin=payload)
    assert code == 0
    data = json.loads(out)
    assert data["j1_precedes_j2"] is True and data["j2_precedes_j1"] is False


def run_main(args, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args + ["--input", "-"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, payload",
    [
        (["hilbert-chow"], [[1, 2]]),
        (["hilbert-chow"], [[]]),
        (["hilbert-chow"], [[1, 2], [3]]),
        (["image"], {"vars": ["z"], "matrices": [[[1, 2]]]}),
        (["rep-check"], {"vars": ["x", "y"], "matrices": [[[1]], [[1, 0], [0, 1]]]}),
    ],
)
def test_shape_errors_are_malformed_input(command, payload, monkeypatch, capsys):
    code, out = run_main(command, json.dumps(payload), monkeypatch, capsys)
    assert code == 2 and out["error"] == "malformed-input"


@pytest.mark.parametrize(
    "command, payload",
    [
        (["hilbert-chow"], [["1e100000"]]),
        (["image"], {"vars": ["z"], "matrices": [[["1e100000"]]]}),
    ],
    ids=["hilbert-chow", "image"],
)
def test_oversized_literal_refused(command, payload, monkeypatch, capsys):
    code, out = run_main(command, json.dumps(payload), monkeypatch, capsys)
    assert code == 2
    assert out == {
        "error": "malformed-input",
        "detail": f"decimal exponent of '1e100000' exceeds the limit of {jsonio.MAX_LITERAL_DIGITS}",
    }


def test_literal_digit_limits():
    limit = jsonio.MAX_LITERAL_DIGITS
    assert jsonio.parse_scalar("1e%d" % limit) == gr(10**limit)
    assert jsonio.parse_scalar("1/" + "7" * limit).re.denominator == int("7" * limit)
    assert jsonio.parse_scalar(10**limit - 1) == gr(10**limit - 1)
    for bad in ("1e%d" % (limit + 1), "2.5E-100000000", "9" * (limit + 1) + "i",
                "1/" + "7" * (limit + 1), {"re": "1", "im": "1e9999"}, 10**limit):
        with pytest.raises(InputError, match="limit"):
            jsonio.parse_scalar(bad)


def test_output_past_the_int_string_limit_is_printed(monkeypatch, capsys):
    # five 1000-digit eigenvalues give a 5000-digit determinant, past
    # Python's 4300-digit int-to-string limit, which main lifts while it
    # computes and prints and then restores
    big = [10**999 + k for k in range(5)]
    rows = [[big[i] if i == j else 0 for j in range(5)] for i in range(5)]
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(rows)))
    assert main(["hilbert-chow", "--input", "-"]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = capsys.readouterr().out
    coeffs = [1]  # prod (x - b), lowest degree first
    for b in big:
        coeffs = [(coeffs[k - 1] if k else 0) - b * (coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    sys.set_int_max_str_digits(0)
    try:
        out = json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == {"char_poly": coeffs, "roots": [{"mult": 1, "root": str(b)} for b in big]}
