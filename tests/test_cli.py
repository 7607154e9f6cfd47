import argparse
import io
import json
import math
import subprocess
import sys
import time

import pytest

from azumaya import cli, jsonio
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


def test_main_keeps_no_state_between_calls(monkeypatch, capsys):
    # main builds its parser once per process; the same calls in either
    # order, with usage errors between them, answer as with a new parser
    point = json.dumps({"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]})
    pair = json.dumps({"t1": {"vars": ["z"], "matrices": [[[1, 1], [0, 1]]]},
                       "t2": {"vars": ["z"], "matrices": [[[1, 0], [0, 1]]]}})
    calls = [
        (["image", "--degree-bound", "1"], point),
        (["image"], point),
        (["weyl-check", "--N", "5", "--r", "2"], None),
        (["weyl-check"], None),
        (["conjugate", "--seed", "3"], pair),
        (["conjugate"], pair),
        (["hilbert-chow"], "[[1,2],[3,4]]"),
        (["hilbert-chow"], "[[1,2]]"),
        (["scenario", "run-all"], None),
        (["weyl-check", "--N", "x"], None),
        (["no-such-command"], None),
    ]

    def answer(args, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text or ""))
        try:
            code = main(args + (["--input", "-"] if text is not None else []))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    cached = [answer(*c) for c in calls] + [answer(*c) for c in reversed(calls)]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [answer(*c) for c in calls] + [answer(*c) for c in reversed(calls)]
    assert cached == fresh
    assert [code for code, _, _ in cached[:len(calls)]] == [0] * 7 + [2, 0, ("exit", 2), ("exit", 2)]
    assert json.loads(cached[0][1])["degree_bound"] == 1 and json.loads(cached[1][1])["degree_bound"] == 2
    assert json.loads(cached[2][1])["rank"] == 2 and json.loads(cached[3][1])["rank"] == 1


@pytest.mark.parametrize(
    "command, payload, options, field",
    [
        (("torus", "class"), {"tau": "0+1i", "components": [{"class": [1, 0], "wrap": "1" + "0" * 5000}]},
         {}, "wrap"),
        (("torus", "class"), {"tau": "0+1i", "components": [{"class": ["9" * 1001, 0]}]}, {}, "class"),
        (("torus", "class"), {"tau": "0+1i", "components": [{"class": [1, 0], "d": 10**1000}]}, {}, "d"),
        (("torus", "class"), {"tau": "0+1i", "components": [{"class": [1, 0], "fiber_rank": "-" + "1" * 1001}]},
         {}, "fiber_rank"),
        (("torus", "slag"), {"tau": "0+1i", "target": [1, "2" * 1001, 0]}, {}, "surrogate"),
        (("orbit-compare",), {"j1": [{"point": [0], "partition": ["1" * 1001]}], "j2": []}, {}, "partition"),
        (("orbit-extremes",), {"support": [{"point": [0], "length": "3" * 1001}]}, {}, "length"),
        (("rep-check",), {"vars": ["z"], "matrices": [[[1]]], "r": "1" * 1001}, {}, "r"),
        (("kahler", "trace"), {"vars": ["x"], "r": 1, "degree": "1" * 1001, "terms": []}, {}, "degree"),
        (("kahler", "trace"), {"vars": ["x"], "r": "1" * 1001, "terms": []}, {}, "r"),
        (("spectral-curve",), {"phi": {"entries": [[[1]]]}, "x": 0}, {}, None),
        (("kahler", "pullback"), {"phi": {"target_vars": ["u"], "source_vars": ["x"], "images": [[[[]]]]},
                                  "form": {"function": [{"exps": ["1" * 1001], "coef": 1}]}}, {}, "exps"),
        (("image",), {"vars": ["z", "w"], "matrices": [[[1]], [[1]]]}, {"degree_bound": "1" * 1001},
         "degree_bound"),
        (("conjugate",), {"t1": {"vars": ["z"], "matrices": [[[1]]]}, "t2": {"vars": ["z"], "matrices": [[[1]]]}},
         {"seed": "1" * 1001}, "seed"),
        (("weyl-check",), {"N": "1" * 1001}, {}, "N"),
        (("weyl-check",), {"N": 4, "r": 10**1000}, {}, "r"),
    ],
)
def test_integer_fields_are_bounded(command, payload, options, field):
    payload = {**payload, **options}  # options are flag values, which are payload fields
    if field is None:  # a control: nothing here is an integer field
        dispatch(command, payload)
        return
    with pytest.raises(InputError) as exc:
        dispatch(command, payload)
    assert str(exc.value) == f"integer field {field!r} exceeds the limit of {jsonio.MAX_LITERAL_DIGITS} digits"


def test_integer_field_limit(monkeypatch, capsys):
    limit = jsonio.MAX_LITERAL_DIGITS
    assert jsonio.parse_int("9" * limit, "f") == int("9" * limit)
    assert jsonio.parse_int(" -1_000 ", "f") == -1000 and jsonio.parse_int(1 - 10**limit, "f") == 1 - 10**limit
    # a 400k-digit field is refused without being converted (int() on it
    # takes over a second)
    payload = {"tau": "0+1i", "components": [{"class": [1, 0], "wrap": "7" * 400_000}]}
    start = time.perf_counter()
    code, out = run_main(["torus", "class"], json.dumps(payload), monkeypatch, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == {"error": "malformed-input",
                                 "detail": f"integer field 'wrap' exceeds the limit of {limit} digits"}


@pytest.mark.parametrize(
    "command, payload, detail",
    [
        (["torus", "class"], {"tau": "0+1i", "components": [{"class": [1, 0], "d": 0}]},
         "cover degree must be positive"),
        (["torus", "class"], {"tau": "1", "components": [{"class": [1, 0]}]},
         "the modulus must have positive imaginary part"),
        (["orbit-extremes"], {"support": [{"point": [0], "length": 0}]}, "lengths must be positive"),
        (["torus", "slag"], {"tau": "0+1i", "target": [-1, 0, 0]}, "covering degree must be nonnegative"),
        (["rep-check"], {"point": {"vars": ["z"], "matrices": [[[1]]]},
                         "presentation": {"vars": ["z"], "relators": [[{"exps": [-1], "coef": 1}]]}},
         "negative exponent"),
        (["weyl-check"], {"N": 0}, "degree cap must be at least 1"),
        (["higgsing", "solve"], {"A": [[[], []], [[], []]], "lambda": 0}, "lam must be nonzero"),
        (["higgsing", "solve"], {"A": [[[], [1]], [[], []]], "lambda": 1, "bhat": [1, 0, 0]},
         "bhat must have four coordinates"),
        (["spectral-curve"], {"phi": {"var": "lambda", "entries": [[[0, 1]]]}},
         "the eigenvalue variable 'lambda' is also the matrix variable"),
        # a string where an array belongs is refused, not read character by character
        (["higgsing", "solve"], {"A": [[[], [1]], [[], []]], "lambda": 1, "bhat": "1234"},
         "field 'bhat' is not an array: '1234'"),
        (["image"], {"vars": "xy", "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]},
         "field 'vars' is not an array: 'xy'"),
        (["rep-check"], {"point": {"vars": ["z"], "matrices": [[[1]]]},
                         "presentation": {"vars": ["z"], "relators": [[{"exps": "2", "coef": 1}]]}},
         "field 'exps' is not an array: '2'"),
        (["orbit-compare"], {"j1": [{"point": "0", "partition": [1]}], "j2": [{"point": [0], "partition": [1]}]},
         "field 'point' is not an array: '0'"),
        (["orbit-compare"], {"j1": [{"point": [0], "partition": "11"}], "j2": [{"point": [0], "partition": [2]}]},
         "field 'partition' is not an array: '11'"),
        (["kahler", "pullback"], {"phi": {"target_vars": "ab", "source_vars": ["x"],
                                          "images": [[[[{"exps": [1], "coef": 1}]]], [[[{"exps": [0], "coef": 2}]]]]},
                                  "form": [[{"exps": [1, 0], "coef": 1}], []]},
         "field 'target_vars' is not an array: 'ab'"),
        (["spectral-curve"], {"phi": ["1"]}, "field 'matrix row' is not an array: '1'"),
        # a repeated variable name would stand for two coordinates at once
        (["image"], {"vars": ["x", "x"], "matrices": [[[1]], [[2]]], "degree_bound": 1},
         "field 'vars' repeats the name 'x'"),
        (["rep-check"], {"point": {"vars": ["x", "y"], "matrices": [[[1]], [[1]]]},
                         "presentation": {"vars": ["x", "x"], "relators": []}},
         "field 'vars' repeats the name 'x'"),
        (["kahler", "trace"], {"vars": ["x", "y", "x"], "r": 1, "terms": []}, "field 'vars' repeats the name 'x'"),
        (["kahler", "pullback"], {"phi": {"target_vars": ["a", "b"], "source_vars": ["x", "x"],
                                          "images": [[[[{"exps": [1, 0], "coef": 1}]]], [[2]]]},
                                  "form": [[{"exps": [1, 0], "coef": 1}], []]},
         "field 'source_vars' repeats the name 'x'"),
        (["kahler", "pullback"], {"phi": {"target_vars": ["a", "a"], "source_vars": ["x"],
                                          "images": [[[[{"exps": [1], "coef": 1}]]], [[2]]]},
                                  "form": [[{"exps": [1, 0], "coef": 1}], []]},
         "field 'target_vars' repeats the name 'a'"),
        (["kahler", "trace"], {"vars": ["x"], "r": 1, "terms": [{"factors": [{"dm": {"vars": ["y", "y"], "entries": [[1]]}}]}]},
         "field 'vars' repeats the name 'y'"),
        # a form has rank and degree at least 1
        (["kahler", "trace"], {"vars": ["x"], "r": -1, "terms": []}, "the rank r must be at least 1, not -1"),
        (["kahler", "trace"], {"vars": ["x"], "r": 1, "degree": -5, "terms": []},
         "the degree must be at least 1, not -5"),
        # a matrix that names other variables than its form or morphism is malformed, not a domain error
        (["kahler", "trace"], {"vars": ["x"], "r": 1, "terms": [{"factors": [
            {"dm": {"vars": ["y", "z"], "entries": [[[{"exps": [1, 0], "coef": 1}]]]}}]}]},
         "matrix variables ('y', 'z') differ from ('x',)"),
        (["kahler", "pullback"], {"phi": {"target_vars": ["a"], "source_vars": ["x"], "images": [
            {"vars": ["y"], "entries": [[[{"exps": [1], "coef": 1}]]]}]}, "form": [[{"exps": [1], "coef": 1}]]},
         "matrix variables ('y',) differ from ('x',)"),
        (["image"], {"vars": ["x", "y"], "matrices": [[[1]], [[2]]], "degree_bound": -1},
         "image: degree_bound must be nonnegative, not -1"),
        # a support entry that is not {point, length} is quoted, not named by Python's error text
        (["orbit-extremes"], {"support": [[1, 0]]}, "bad support entry [1, 0]"),
        (["orbit-extremes"], {"support": [{"point": [1]}]}, "bad support entry {'point': [1]}"),
        # a polynomial variable is a name, not an array or a number
        (["spectral-curve"], {"phi": {"var": ["z"], "entries": [[[1, 2]]]}}, "field 'var' is not a string: ['z']"),
        (["spectral-curve"], {"phi": {"var": 5, "entries": [[[1, 2]]]}}, "field 'var' is not a string: 5"),
        (["higgsing", "solve"], {"A": {"var": ["z"], "entries": [[[], [1]], [[], []]]}, "lambda": 1},
         "field 'var' is not a string: ['z']"),
        # so is each name of a vars-like array
        (["image"], {"vars": [["x"], 5], "matrices": [[[1]], [[2]]], "degree_bound": 1},
         "field 'vars' holds a name that is not a string: ['x']"),
        (["kahler", "pullback"], {"phi": {"target_vars": ["a", "b"], "source_vars": [1],
                                          "images": [[[[{"exps": [1], "coef": 1}]]], [[2]]]},
                                  "form": [[{"exps": [1, 0], "coef": 1}], []]},
         "field 'source_vars' holds a name that is not a string: 1"),
        (["kahler", "pullback"], {"phi": {"target_vars": ["a", None], "source_vars": ["x"],
                                          "images": [[[[{"exps": [1], "coef": 1}]]], [[2]]]},
                                  "form": [[{"exps": [1, 0], "coef": 1}], []]},
         "field 'target_vars' holds a name that is not a string: None"),
    ],
    ids=["torus-d", "torus-tau", "orbit-length", "slag-target", "relator-exponent", "weyl-N", "higgs-lambda",
         "higgs-bhat-length", "curve-var-lambda", "higgs-bhat-string", "image-vars-string",
         "relator-exps-string", "orbit-point-string", "orbit-partition-string", "pullback-target-vars-string",
         "curve-row-string", "image-vars-repeated", "presentation-vars-repeated", "form-vars-repeated",
         "pullback-source-vars-repeated", "pullback-target-vars-repeated", "form-matrix-vars-repeated",
         "form-r-negative", "form-degree-negative", "form-matrix-vars-differ", "pullback-image-vars-differ",
         "image-degree-bound-negative", "support-entry-not-object", "support-entry-no-length",
         "curve-var-array", "curve-var-number", "higgs-var-array", "image-vars-name-array",
         "pullback-source-vars-name-number", "pullback-target-vars-name-null"],
)
def test_refused_fields_are_malformed_input(command, payload, detail, monkeypatch, capsys):
    code, out = run_main(command, json.dumps(payload), monkeypatch, capsys)
    assert (code, out) == (2, {"error": "malformed-input", "detail": detail})


def test_a_declared_form_degree_is_kept_and_otherwise_read_off_the_terms(monkeypatch, capsys):
    one = {"dm": [[[{"exps": [1], "coef": 1}]]]}
    two = {"vars": ["x"], "r": 1, "terms": [{"factors": [one, {"dm": [[[{"exps": [2], "coef": 1}]]]}]}]}
    code, out = run_main(["kahler", "trace"], json.dumps(two), monkeypatch, capsys)
    assert (code, out["degree"]) == (0, 2)
    assert run_main(["kahler", "trace"], json.dumps(dict(two, degree=2)), monkeypatch, capsys) == (code, out)
    declared = {"vars": ["x"], "r": 1, "degree": 3, "terms": [{"factors": [one]}]}
    code, out = run_main(["kahler", "trace"], json.dumps(declared), monkeypatch, capsys)
    assert (code, out) == (2, {"error": "malformed-input", "detail": "mixed tensor degrees in one form"})


def test_higgsing_solve_answers_alike_for_matrix_variable_v_and_z(monkeypatch, capsys):
    # the eigenvalue variable of the internal spectral curve is never printed,
    # so no name of the matrix variable can clash with it
    answers = []
    for var in ("v", "z"):
        payload = {"A": {"var": var, "entries": [[1, 0], [0, 1]]}, "lambda": 1, "bhat": [1, 0, 0, 1]}
        answers.append(run_main(["higgsing", "solve"], json.dumps(payload), monkeypatch, capsys))
    assert answers[0] == answers[1]
    assert answers[0][0] == 0 and answers[0][1]["char_poly_matches_degree0"] is True


def test_errors_while_computing_stay_domain_errors(monkeypatch, capsys):
    payload = {"phi1": {"components": [{"class": [1, 0]}], "tau": "0+1i"},
               "phi2": {"components": [{"class": [0, 1]}], "tau": "0+2i"}}
    code, out = run_main(["torus", "amalgamate"], json.dumps(payload), monkeypatch, capsys)
    assert (code, out["error"]) == (1, "domain-error")


def test_pushforward_of_a_tuple_that_does_not_commute_is_a_domain_error(monkeypatch, capsys):
    payload = {"point": {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}}
    code, out = run_main(["pushforward"], json.dumps(payload), monkeypatch, capsys)
    assert (code, out) == (1, {"error": "domain-error", "detail": "the matrices of the tuple do not commute"})


def test_image_of_a_tuple_that_does_not_commute_is_a_domain_error(monkeypatch, capsys):
    payload = {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], "degree_bound": 2}
    code, out = run_main(["image"], json.dumps(payload), monkeypatch, capsys)
    assert (code, out) == (1, {"error": "domain-error", "detail": "the matrices of the tuple do not commute"})


def _accepted_commands(parser, prefix=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {prefix}
    return set().union(*(_accepted_commands(p, prefix + (name,)) for name, p in subparsers[0].choices.items()))


def test_command_table_is_the_parser_and_flags_are_payload_fields(monkeypatch):
    assert _accepted_commands(cli.build_parser()) == set(cli.COMMANDS)
    # flag -> (text given, payload field, value that lands there)
    flags = {
        ("image",): {"--degree-bound": ("3", "degree_bound", 3)},
        ("conjugate",): {"--seed": ("7", "seed", 7)},
        ("higgsing", "solve"): {"--A": ("[[[],[1]],[[],[]]]", "A", [[[], [1]], [[], []]]),
                                "--lambda": ("1.5", "lambda", "1.5"),
                                "--bhat": ("[1,0,0,0]", "bhat", [1, 0, 0, 0])},
        ("spectral-curve",): {"--phi": ("not json", "phi", "not json")},
        ("weyl-check",): {"--N": ("5", "N", 5), "--r": ("2", "r", 2)},
        ("kahler", "trace"): {"--form": ('{"r":1}', "form", {"r": 1})},
        ("kahler", "pullback"): {"--phi": ("{}", "phi", {}), "--form": ("[]", "form", [])},
    }
    seen = []
    monkeypatch.setattr(cli, "dispatch", lambda command, payload: seen.append((command, payload)) or {})
    for command, entry in cli.COMMANDS.items():
        assert ["--" + f.name for f in entry.flags] == list(flags.get(command, {}))
        for flag, (text, field, value) in flags.get(command, {}).items():
            assert main([*command, flag, text]) == 0
            assert seen.pop() == (command, {field: value})


def test_flags_override_input_fields(monkeypatch, capsys):
    point = {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], "degree_bound": 1}
    code, out = run_main(["image"], json.dumps(point), monkeypatch, capsys)
    assert code == 0 and out["degree_bound"] == 1
    code, out = run_main(["image", "--degree-bound", "3"], json.dumps(point), monkeypatch, capsys)
    assert code == 0 and out["degree_bound"] == 3


def _power_pullback(k):
    """The pullback of u^k du along u -> [[x + y]]."""
    return {"phi": {"target_vars": ["u"], "source_vars": ["x", "y"],
                    "images": [[[[{"exps": [1, 0], "coef": 1}, {"exps": [0, 1], "coef": 1}]]]]},
            "form": [[{"exps": [k], "coef": 1}]]}


def _one_term_trace(n, s):
    """A one-term form of degree s on n variables, each slot d(x_1...x_n)."""
    dm = {"dm": [[[{"exps": [1] * n, "coef": 1}]]]}
    return {"form": {"vars": [f"x{i}" for i in range(n)], "r": 1, "terms": [{"factors": [dm] * s}]}}


@pytest.mark.parametrize(
    "command, payload, detail",
    [
        (["image", "--degree-bound", "300"], {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]},
         f"image: the monomials of degree <= 300 in 2 variables exceed the limit of {jsonio.MAX_MONOMIALS}"),
        (["image", "--degree-bound", "13"], {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]},
         f"image: the monomials of degree <= 13 in 2 variables exceed the limit of {jsonio.MAX_MONOMIALS}"),
        (["image"], {"vars": ["x", "y"], "matrices": [[[int(i == j) for j in range(13)] for i in range(13)]] * 2},
         f"image: the monomials of degree <= 13 in 2 variables exceed the limit of {jsonio.MAX_MONOMIALS}"),
        (["weyl-check", "--N", "3000"], {}, f"weyl-check: r*N*(r+N) exceeds the limit of {jsonio.MAX_WEYL_TERMS}"),
        (["weyl-check", "--N", "316", "--r", "2"], {},
         f"weyl-check: r*N*(r+N) exceeds the limit of {jsonio.MAX_WEYL_TERMS}"),
        (["weyl-check", "--N", "2", "--r", "100000"], {},
         f"weyl-check: r*N*(r+N) exceeds the limit of {jsonio.MAX_WEYL_TERMS}"),
        (["weyl-check", "--N", "1"], {}, "weyl-check: N = 1 is below the limit of 2"),
        (["kahler", "pullback"], _power_pullback(1001),
         f"exponent 1001 exceeds the limit of {jsonio.MAX_EXPONENT}"),
        (["kahler", "pullback"], _power_pullback(20000),
         f"exponent 20000 exceeds the limit of {jsonio.MAX_EXPONENT}"),
        (["kahler", "trace"], _one_term_trace(3, 9),
         f"kahler trace: 3^9 index tuples exceed the limit of {jsonio.MAX_FORM_INDICES}"),
        (["kahler", "trace"], _one_term_trace(10, 5),
         f"kahler trace: 10^5 index tuples exceed the limit of {jsonio.MAX_FORM_INDICES}"),
        (["kahler", "trace"], {"form": {"vars": ["x", "y"], "r": 1, "degree": 10**999, "terms": []}},
         f"kahler trace: 2^{10**999} index tuples exceed the limit of {jsonio.MAX_FORM_INDICES}"),
    ],
    ids=["image-D300", "image-D13", "image-default-r13", "weyl-N3000", "weyl-N316-r2", "weyl-N2-r100000",
         "weyl-N1", "pullback-exponent-1001", "pullback-exponent-20000", "trace-3-vars-degree-9",
         "trace-10-vars-degree-5", "trace-declared-degree"],
)
def test_work_limits_refuse_up_front(command, payload, detail, monkeypatch, capsys):
    start = time.perf_counter()
    code, out = run_main(command, json.dumps(payload), monkeypatch, capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, {"error": "malformed-input", "detail": detail})


@pytest.mark.parametrize("r", [300, 10**6])
def test_form_rank_is_checked_against_the_term_matrices_first(r, monkeypatch, capsys):
    # the scenario's 2x2 dm with a large r and no "pre": the r x r identity
    # used to be built before anything looked at r
    from azumaya.scenarios import SCENARIOS

    form = dict(next(s for s in SCENARIOS if s.command == ("kahler", "trace")).payload["form"], r=r)
    start = time.perf_counter()
    code, out = run_main(["kahler", "trace"], json.dumps({"form": form}), monkeypatch, capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, {"error": "malformed-input",
                               "detail": f"r = {r} does not match the 2x2 matrix of form term 0"})


def test_requests_just_inside_the_work_limits_are_answered(monkeypatch, capsys):
    assert math.comb(12 + 2, 2) <= jsonio.MAX_MONOMIALS < math.comb(13 + 2, 2)
    point = {"vars": ["x", "y"], "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]}
    code, out = run_main(["image", "--degree-bound", "12"], json.dumps(point), monkeypatch, capsys)
    assert code == 0 and out["degree_bound"] == 12 and out["basis"]
    assert 2 * 315 * (2 + 315) <= jsonio.MAX_WEYL_TERMS < 2 * 316 * (2 + 316)
    code, out = run_main(["weyl-check", "--N", "315", "--r", "2"], "{}", monkeypatch, capsys)
    assert (code, out) == (0, {"cap": 315, "checked_degrees": 313, "ok": True, "rank": 2})
    k = jsonio.MAX_EXPONENT  # (x + y)^k dx + (x + y)^k dy
    code, out = run_main(["kahler", "pullback"], json.dumps(_power_pullback(k)), monkeypatch, capsys)
    assert code == 0 and [c["index"] for c in out["trace"]["form"]] == [[0], [1]]
    assert [t["exps"] for t in out["trace"]["form"][0]["coef"]] == [[j, k - j] for j in range(k + 1)]
    assert 3**8 <= jsonio.MAX_FORM_INDICES < 3**9
    code, out = run_main(["kahler", "trace"], json.dumps(_one_term_trace(3, 8)), monkeypatch, capsys)
    assert code == 0 and len(out["form"]) == 3**8


@pytest.mark.parametrize("text", ["[]", '"x"', "5", "null"])
def test_weyl_check_refuses_a_payload_that_is_not_an_object(text, monkeypatch, capsys):
    code, out = run_main(["weyl-check"], text, monkeypatch, capsys)
    assert (code, out) == (2, {"error": "malformed-input", "detail": "weyl-check: the payload must be a JSON object"})


# one request per field, with the field's value left open
INTEGER_FIELD_REQUESTS = {
    "N": (["weyl-check"], lambda v: {"N": v}),
    "exps": (["kahler", "pullback"], lambda v: {
        "phi": {"target_vars": ["u"], "source_vars": ["x"], "images": [[[[{"exps": [1], "coef": 1}]]]]},
        "form": {"function": [{"exps": [v], "coef": 1}]}}),
    "length": (["orbit-extremes"], lambda v: {"support": [{"point": [0], "length": v}]}),
    "degree_bound": (["image"], lambda v: {"vars": ["z", "w"], "matrices": [[[1]], [[1]]], "degree_bound": v}),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELD_REQUESTS))
@pytest.mark.parametrize("value", [4.9, 2.5, -0.5, True, False, "4.5", "four"])
def test_integer_fields_refuse_bools_fractions_and_non_integer_strings(field, value, monkeypatch, capsys):
    command, request = INTEGER_FIELD_REQUESTS[field]
    code, out = run_main(command, json.dumps(request(value)), monkeypatch, capsys)
    assert (code, out) == (2, {"error": "malformed-input", "detail": f"integer field {field!r} is not an integer: {value!r}"})


@pytest.mark.parametrize("field", sorted(INTEGER_FIELD_REQUESTS))
def test_integer_fields_accept_integer_strings_and_integral_floats(field, monkeypatch, capsys):
    command, request = INTEGER_FIELD_REQUESTS[field]
    answers = [run_main(command, json.dumps(request(v)), monkeypatch, capsys) for v in (3, "3", " 3 ", 3.0)]
    assert answers[0][0] == 0
    assert answers[1:] == answers[:1] * 3


@pytest.mark.parametrize(
    "command, payload, detail",
    [
        (["kahler", "trace"], {"vars": ["x"], "r": 1, "terms": ["a"]}, "form term 0 is not an object: 'a'"),
        (["torus", "class"], {"tau": "1i", "components": ["x"]}, "component 0 is not an object: 'x'"),
        (["torus", "validate-profile"], {"tau": "1i", "components": [5], "profile": []},
         "component 0 is not an object: 5"),
        (["torus", "amalgamate"], {"phi1": {"tau": "1i", "components": [{"class": [1, 0]}, None]},
                                   "phi2": {"tau": "1i", "components": []}}, "component 1 is not an object: None"),
        (["torus", "cancel"], {"phi1": {"tau": "1i", "components": [["x"]]},
                               "phi2": {"tau": "1i", "components": []}}, "component 0 is not an object: ['x']"),
    ],
)
def test_list_entries_that_are_not_objects_are_malformed_input(command, payload, detail, monkeypatch, capsys):
    code, out = run_main(command, json.dumps(payload), monkeypatch, capsys)
    assert (code, out) == (2, {"error": "malformed-input", "detail": detail})


FUZZ_VALUES = ["x", 5, 2.5, -1, 0, True, None, [], {}, ["a"], [5], [["x"]], {"a": 1}]


def _nested_paths(value, path=()):
    """The path of value and of each value nested in it, the first 3 items of each list."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value[:3]) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nested_paths(item, path + (key,))


def _replaced(value, path, new):
    """A copy of value with the value at path replaced by new."""
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def test_no_scenario_payload_variant_raises(monkeypatch, capsys):
    from azumaya.scenarios import SCENARIOS

    failures = []
    for sc in SCENARIOS:
        for path in _nested_paths(sc.payload):
            for new in FUZZ_VALUES:
                text = json.dumps(_replaced(sc.payload, path, new))
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                try:
                    code = main([*sc.command, "--input", "-"])
                except Exception as exc:
                    code = repr(exc)
                lines = capsys.readouterr().out.splitlines()
                if code not in (0, 1, 2) or len(lines) != 1:
                    failures.append((sc.command, text, code, lines))
                else:
                    json.loads(lines[0])
    assert not failures
