"""Bundled worked examples, runnable as `azumaya scenario run-all`.

Each scenario pins a command, an input payload and the exact expected
output; the runner re-executes the command through the normal dispatch
path and compares canonical JSON byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scenario:
    name: str
    command: tuple
    payload: dict | list
    expected: dict


_TAU = "0+1i"

SCENARIOS = (
    Scenario(
        name="hilbert-chow-nilpotent-2x2",
        command=("hilbert-chow",),
        payload=[[0, 1], [0, 0]],
        expected={"char_poly": [0, 0, 1], "roots": [{"root": "0", "mult": 2}]},
    ),
    Scenario(
        name="hilbert-chow-identity-2x2",
        command=("hilbert-chow",),
        payload=[[1, 0], [0, 1]],
        expected={"char_poly": [1, -2, 1], "roots": [{"root": "1", "mult": 2}]},
    ),
    Scenario(
        name="hilbert-chow-diagonal-1-2-2",
        command=("hilbert-chow",),
        payload=[[1, 0, 0], [0, 2, 0], [0, 0, 2]],
        expected={
            "char_poly": [-4, 8, -5, 1],
            "roots": [{"root": "1", "mult": 1}, {"root": "2", "mult": 2}],
        },
    ),
    Scenario(
        name="rep-check-noncommuting-pair",
        command=("rep-check",),
        payload={
            "point": {
                "r": 2,
                "vars": ["x", "y"],
                "matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
            }
        },
        expected={"rep_check": False},
    ),
    Scenario(
        name="rep-check-nilpotent-relator",
        command=("rep-check",),
        payload={
            "point": {"r": 2, "vars": ["z"], "matrices": [[[0, 1], [0, 0]]]},
            "presentation": {"vars": ["z"], "relators": [[{"exps": [2], "coef": 1}]]},
        },
        expected={"rep_check": True},
    ),
    Scenario(
        name="image-ideal-diagonal-1-2",
        command=("image",),
        payload={"point": {"r": 2, "vars": ["z"], "matrices": [[[1, 0], [0, 2]]]}},
        expected={"var": "z", "min_poly": [2, -3, 1]},
    ),
    Scenario(
        name="image-ideal-pair-second-coordinate-zero",
        command=("image",),
        payload={
            "point": {
                "r": 2,
                "vars": ["z1", "z2"],
                "matrices": [[[0, 0], [0, 1]], [[0, 0], [0, 0]]],
            },
            "degree_bound": 1,
        },
        expected={
            "vars": ["z1", "z2"],
            "degree_bound": 1,
            "basis": [[{"exps": [0, 1], "coef": 1}]],
        },
    ),
    Scenario(
        name="pushforward-jordan-block",
        command=("pushforward",),
        payload={"point": {"r": 2, "vars": ["z"], "matrices": [[[0, 1], [0, 0]]]}},
        expected={
            "entries": [{"point": ["0"], "length": 2, "filtration_ranks": [1]}]
        },
    ),
    Scenario(
        name="conjugate-jordan-vs-transpose",
        command=("conjugate",),
        payload={
            "t1": {"r": 2, "vars": ["z"], "matrices": [[[0, 1], [0, 0]]]},
            "t2": {"r": 2, "vars": ["z"], "matrices": [[[0, 0], [1, 0]]]},
        },
        expected={"status": "conjugate", "conjugate": True},
    ),
    Scenario(
        name="orbit-compare-2-2-vs-3-1",
        command=("orbit-compare",),
        payload={
            "j1": [{"point": ["0"], "partition": [2, 2]}],
            "j2": [{"point": ["0"], "partition": [3, 1]}],
        },
        expected={"j1_precedes_j2": True, "j2_precedes_j1": False},
    ),
    Scenario(
        name="orbit-extremes-length-3",
        command=("orbit-extremes",),
        payload={"support": [{"point": ["0"], "length": 3}]},
        expected={
            "maximal": [{"point": ["0"], "partition": [3]}],
            "minimal": [{"point": ["0"], "partition": [1, 1, 1]}],
        },
    ),
    Scenario(
        name="higgsing-first-fundamental-solution",
        command=("higgsing", "solve"),
        payload={
            "A": [[[], [1]], [[], []]],
            "lambda": 1,
            "bhat": [1, 0, 0, 0],
        },
        expected={
            "solvable": True,
            "bhat": [1, 0, 0, 0],
            "B": [[[1], [0, 1]], [[], []]],
            "B0": [[1, 0], [0, 0]],
            "residual_zero": True,
            "char_poly_matches_degree0": True,
            "branch": {
                "case": "a",
                "eigenvalues": ["0", "1"],
                "kernel_ideal": [0, -1, 1],
                "components": [
                    {"eigenvalue": "0", "kernel_basis": [[[0, 1], [-1]]]},
                    {"eigenvalue": "1", "kernel_basis": [[[1], []]]},
                ],
                "filtered": False,
            },
        },
    ),
    Scenario(
        name="spectral-curve-two-sheets",
        command=("spectral-curve",),
        payload={"phi": [[[], [1]], [[0, 1], []]]},
        expected={
            "vars": ["z", "lambda"],
            "curve": [{"exps": [1, 0], "coef": -1}, {"exps": [0, 2], "coef": 1}],
        },
    ),
    Scenario(
        name="weyl-check-cap-5",
        command=("weyl-check",),
        payload={"N": 5},
        expected={"cap": 5, "rank": 1, "checked_degrees": 3, "ok": True},
    ),
    Scenario(
        name="torus-class-short-to-long-merge",
        command=("torus", "class"),
        payload={
            "tau": _TAU,
            "components": [
                {"class": [1, 0], "d": 1},
                {"class": [1, 0], "d": 1},
                {"class": [1, 0], "d": 2},
            ],
        },
        expected={"surrogate": [4, 3, 0]},
    ),
    Scenario(
        name="torus-slag-4-3-0",
        command=("torus", "slag"),
        payload={"target": [4, 3, 0], "tau": _TAU},
        expected={
            "morphism": {
                "tau": _TAU,
                "components": [
                    {"class": [1, 0], "d": 4, "fiber_rank": 1, "offset": 0, "wrap": 3}
                ],
            },
            "surrogate": [4, 3, 0],
            "special_lagrangian": True,
        },
    ),
    Scenario(
        name="torus-brane-anti-brane-cancellation",
        command=("torus", "cancel"),
        payload={
            "phi1": {"tau": _TAU, "components": [{"class": [1, 1], "d": 2}]},
            "phi2": {"tau": _TAU, "components": [{"class": [-1, -1], "d": 3}]},
        },
        expected={
            "morphism": {
                "tau": _TAU,
                "components": [
                    {"class": [0, 0], "d": 1, "fiber_rank": 5, "offset": 0, "wrap": 0}
                ],
            },
            "cycle": {"lines": [], "points": [{"point": "0", "length": 5}]},
            "line_part_empty": True,
            "rank": 5,
        },
    ),
    Scenario(
        name="torus-profile-junction-refines-intervals",
        command=("torus", "validate-profile"),
        payload={
            "tau": _TAU,
            "components": [{"class": [1, 0], "d": 2}],
            "profile": [
                [{"point": ["0"], "partition": [2]}],
                [{"point": ["0"], "partition": [1, 1]}],
                [{"point": ["0"], "partition": [1, 1]}],
                [{"point": ["0"], "partition": [1, 1]}],
            ],
        },
        expected={"valid": True},
    ),
    Scenario(
        name="torus-profile-junction-too-deep",
        command=("torus", "validate-profile"),
        payload={
            "tau": _TAU,
            "components": [{"class": [1, 0], "d": 2}],
            "profile": [
                [{"point": ["0"], "partition": [1, 1]}],
                [{"point": ["0"], "partition": [2]}],
                [{"point": ["0"], "partition": [1, 1]}],
                [{"point": ["0"], "partition": [1, 1]}],
            ],
        },
        expected={"valid": False},
    ),
    Scenario(
        name="kahler-trace-of-central-coordinate",
        command=("kahler", "trace"),
        payload={
            "form": {
                "vars": ["z"],
                "r": 2,
                "terms": [
                    {
                        "factors": [
                            {"dm": [[[{"exps": [1], "coef": 1}], []], [[], [{"exps": [1], "coef": 1}]]]}
                        ]
                    }
                ],
            }
        },
        expected={
            "vars": ["z"],
            "degree": 1,
            "form": [{"index": [0], "coef": [{"exps": [0], "coef": 2}]}],
        },
    ),
)
