import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from bihsurf.cli import main
from bihsurf.core import MAX_SQUAREFREE, DomainError
from bihsurf.immersion import sasahara_data
from bihsurf.parameters import canonicalize

SQ2PI = math.sqrt(2.0) * math.pi


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_structure_member(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, err = run_cli(["construct", "--h", "0.5", "--rho", "0", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"h", "mu", "eta", "R", "Rp"}
    assert data["Rp"][0] == pytest.approx(1 / 3, abs=1e-15)
    echo = json.loads(err)
    assert echo["R1p"] == pytest.approx(1 / 3, abs=1e-15)
    assert echo["rho_tilde"] == pytest.approx(-math.pi / 2, abs=1e-15)
    assert echo["lambda1"] == 1.0 and echo["lambda2"] == 3.0


def test_construct_preset_sasahara(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, _ = run_cli(["construct", "--preset", "sasahara", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["h"] == 0.5
    assert data["Rp"] == [0.5, 0.5]
    assert data["mu"] == [[1.0, 0.0]]


def test_construct_extend_raises_dimension(tmp_path, capsys):
    base = tmp_path / "b.json"
    run_cli(["construct", "--h", "0.4", "--rho", "0.5", "--out", str(base)], capsys)
    ext = tmp_path / "e.json"
    code, _, _ = run_cli(["construct", "--extend", str(base), "--out", str(ext)], capsys)
    assert code == 0
    data = json.loads(ext.read_text())
    assert len(data["mu"]) * 2 + len(data["eta"]) * 2 == 8
    code, _, _ = run_cli(["verify", "--params", str(ext), "--samples", "40"], capsys)
    assert code == 0


def test_construct_domain_error_exit_2(capsys):
    code, _, err = run_cli(["construct", "--h", "0.5", "--rho", "2.0"], capsys)
    assert code == 2
    assert "structure range" in err


def test_verify_pass_and_report(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--h", "0.7", "--rho", "0.3", "--out", str(params)], capsys)
    report = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["verify", "--params", str(params), "--samples", "60", "--seed", "4", "--out", str(report)],
        capsys,
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["samples"] == 60
    assert all(c["passed"] for c in rep["checks"])
    names = {c["name"] for c in rep["checks"]}
    assert {"miyata_balance", "bitension", "mean_curvature_norm"} <= names


def test_verify_broken_weights_exit_1(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    data = json.loads(params.read_text())
    data["Rp"] = [0.55 / 1.05, 0.5 / 1.05]
    params.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code, _, err = run_cli(["verify", "--params", str(params), "--out", str(report)], capsys)
    assert code == 1
    rep = json.loads(report.read_text())
    failing = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "miyata_balance" in failing


def test_verify_deterministic_bytes(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--h", "0.5", "--rho", "0.2", "--out", str(params)], capsys)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli(["verify", "--params", str(params), "--seed", "9", "--out", str(r1)], capsys)
    run_cli(["verify", "--params", str(params), "--seed", "9", "--out", str(r2)], capsys)
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_zero_samples_exit_2(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, _, err = run_cli(["verify", "--params", str(params), "--samples", "0"], capsys)
    assert code == 2
    assert "samples must be a positive integer" in err


def test_verify_negative_seed_exit_2(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, _, err = run_cli(["verify", "--params", str(params), "--seed", "-1"], capsys)
    assert code == 2
    assert "seed must be a non-negative integer" in err


def test_verify_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"h": 0.5, "mu": [[1, 0]]}')
    code, _, _ = run_cli(["verify", "--params", str(bad)], capsys)
    assert code == 2


def test_verify_tolerance_overrides(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--h", "0.5", "--rho", "0.2", "--out", str(params)], capsys)
    # an absurdly tight bitension tolerance flips the verdict
    code, _, _ = run_cli(
        ["verify", "--params", str(params), "--samples", "30", "--tol", "bitension=1e-30"],
        capsys,
    )
    assert code == 1
    code, _, _ = run_cli(
        ["verify", "--params", str(params), "--samples", "30", "--tol", "nonsense=1"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", "0", "-1e-3"])
def test_verify_bad_tolerance_value_exit_2(tmp_path, capsys, value):
    params = tmp_path / "m.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    report = tmp_path / "r.json"
    code, _, err = run_cli(
        ["verify", "--params", str(params), "--samples", "10",
         "--tol", "bitension=" + value, "--out", str(report)],
        capsys,
    )
    assert code == 2
    assert "tolerance for bitension must be a positive finite number" in err
    assert not report.exists()


def test_lattice_command_sasahara(tmp_path, capsys):
    params = tmp_path / "s.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, out, _ = run_cli(["lattice", "--params", str(params), "--search-bound", "20"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["rank"] == 2
    from bihsurf.periodicity import same_lattice

    assert same_lattice(res["generators"], [(SQ2PI, 0.0), (0.0, 2 * math.pi)])


@pytest.mark.parametrize("mu", [(2.0, 0.0), (0.0, 0.0)])
def test_off_circle_mu_is_refused_by_name(tmp_path, capsys, mu):
    # canonicalize turns every eta by conj(mu_1): a mu_1 off the unit circle
    # was once blamed on eta (eta_unit_norm, miyata_balance, eta_distinct)
    data = replace(sasahara_data(), mu=(complex(*mu),))
    with pytest.raises(DomainError, match=r"^mu_1 must have modulus 1"):
        canonicalize(data)
    params = tmp_path / "bad_mu.json"
    params.write_text(data.to_json())
    code, out, err = run_cli(["lattice", "--params", str(params), "--search-bound", "20"], capsys)
    assert (code, out) == (2, "")
    assert "mu_1" in err and "eta" not in err


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_lattice_non_finite_search_bound_exit_2(tmp_path, capsys, bound):
    params = tmp_path / "s.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, _, err = run_cli(["lattice", "--params", str(params), "--search-bound", bound], capsys)
    assert code == 2
    assert "search_bound must be a positive finite number" in err


def test_torus_exists_command_case_ii(capsys):
    code, out, _ = run_cli(["torus-exists", "--h", "1/2"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["verdict"] == "case_ii"
    assert [res["witness"][k] for k in ("p", "q", "r", "t")] == [1, 2, 1, 2]


def test_torus_exists_command_case_i(capsys):
    code, out, _ = run_cli(["torus-exists", "--h", "4/5"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["verdict"] == "case_i"
    assert res["witness"]["q"] == "3/1"


def test_torus_exists_refuses_decimal(capsys):
    code, _, err = run_cli(["torus-exists", "--h", "0.5"], capsys)
    assert code == 2
    assert "refused" in err


def test_torus_exists_zero_search_bound_exit_2(capsys):
    code, _, err = run_cli(["torus-exists", "--h", "3/7", "--search-bound", "0"], capsys)
    assert code == 2
    assert "search_bound" in err


def test_torus_exists_past_the_trial_division_cap_exit_2(capsys):
    q = math.isqrt(MAX_SQUAREFREE) + 1
    code, out, err = run_cli(["torus-exists", "--h", "%d/%d" % (q * q - 1, q * q + 1)], capsys)
    assert (code, out) == (2, "")
    assert "h must" in err and str(MAX_SQUAREFREE) in err


def test_torus_exists_from_squares(capsys):
    code, out, _ = run_cli(["torus-exists", "--a", "1/4", "--b", "1/4"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["h"] == "1/2"
    assert res["verdict"] == "case_ii"
    assert [res["witness"][k] for k in ("p", "q", "r", "t")] == [1, 2, 1, 2]


def test_torus_exists_rejects_non_square_a(capsys):
    code, _, err = run_cli(["torus-exists", "--a", "1/3", "--b", "1/4"], capsys)
    assert code == 2
    assert "square" in err


def test_admissible_command(tmp_path, capsys):
    lat = tmp_path / "std2pi.json"
    lat.write_text(json.dumps({"gens": [["2*pi", "0"], ["0", "2*pi"]]}))
    code, out, _ = run_cli(["admissible", "--lattice", str(lat), "--h", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "none_empty_circle"


def test_admissible_command_witness(tmp_path, capsys):
    lat = tmp_path / "sqrt5.json"
    lat.write_text(json.dumps({"gens": [["2*pi*sqrt(5)", "0"], ["0", "2*pi*sqrt(5)"]]}))
    code, out, _ = run_cli(["admissible", "--lattice", str(lat), "--h", "3/5"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["verdict"] == "exists_pseudo_umbilical"
    assert res["m"] == 2 and res["mp"] == 2
    assert set(res["witness"]) == {"h", "mu", "eta", "R", "Rp"}


LAT_STD2PI = {"gens": [["2*pi", "0"], ["0", "2*pi"]]}
LAT_SQRT5 = {"gens": [["2*pi*sqrt(5)", "0"], ["0", "2*pi*sqrt(5)"]]}
LAT_RECT_EXISTS = {"gens": [["pi*sqrt(5)/2", "0"], ["0", "pi*sqrt(5)"]]}
TORUS_HALF = (
    '{\n  "h": "1/2",\n  "verdict": "case_ii",\n  "witness": {\n    "p": 1,\n    "q": 2,\n'
    '    "r": 1,\n    "t": 2,\n    "condition": "m*2/1 - n*2/2 in Z"\n  },\n'
    '  "generators": [\n    [\n      4.44288293815837,\n      0.0\n    ],\n'
    '    [\n      0.0,\n      6.28318530717959\n    ]\n  ]\n}\n'
)


@pytest.mark.parametrize(
    "args, lattice, expected",
    [
        (["torus-exists", "--h", "1/2"], None, TORUS_HALF),
        (["torus-exists", "--a", "1/4", "--b", "1/4"], None, TORUS_HALF),
        (
            ["torus-exists", "--h", "4/5"],
            None,
            '{\n  "h": "4/5",\n  "verdict": "case_i",\n  "witness": {\n    "q": "3/1"\n  },\n'
            '  "generators": [\n    [\n      3.31152942193203,\n      0.0\n    ],\n'
            '    [\n      0.0,\n      9.9345882657961\n    ]\n  ]\n}\n',
        ),
        (
            ["torus-exists", "--h", "3/7", "--search-bound", "8"],
            None,
            '{\n  "h": "3/7",\n  "verdict": "not_found",\n  "witness": null,\n'
            '  "generators": []\n}\n',
        ),
        (
            ["admissible", "--h", "1/2"],
            LAT_STD2PI,
            '{\n  "h": "1/2",\n  "verdict": "none_empty_circle",\n'
            '  "circle_counts": [\n    2,\n    0\n  ]\n}\n',
        ),
        (
            ["admissible", "--h", "3/5"],
            LAT_SQRT5,
            '{\n  "h": "3/5",\n  "verdict": "exists_pseudo_umbilical",\n'
            '  "circle_counts": [\n    2,\n    2\n  ],\n  "m": 2,\n  "mp": 2,\n'
            '  "witness": {\n    "h": 0.6,\n'
            '    "mu": [\n      [\n        -1.0,\n        0.0\n      ],\n'
            '      [\n        0.0,\n        -1.0\n      ]\n    ],\n'
            '    "eta": [\n      [\n        -1.0,\n        0.0\n      ],\n'
            '      [\n        0.0,\n        -1.0\n      ]\n    ],\n'
            '    "R": [\n      0.5,\n      0.5\n    ],\n'
            '    "Rp": [\n      0.5,\n      0.5\n    ]\n  }\n}\n',
        ),
        (
            ["admissible", "--h", "3/5"],
            LAT_RECT_EXISTS,
            '{\n  "h": "3/5",\n  "verdict": "exists",\n'
            '  "circle_counts": [\n    1,\n    2\n  ],\n  "m": 1,\n  "mp": 2,\n'
            '  "witness": {\n    "h": 0.6,\n'
            '    "mu": [\n      [\n        1.0,\n        0.0\n      ]\n    ],\n'
            '    "eta": [\n      [\n        1.0,\n        0.0\n      ],\n'
            '      [\n        0.0,\n        -1.0\n      ]\n    ],\n'
            '    "R": [\n      1.0\n    ],\n'
            '    "Rp": [\n      0.375,\n      0.625\n    ]\n  }\n}\n',
        ),
    ],
    ids=["h-1/2", "a-b-squares", "h-4/5", "h-3/7-bound-8", "std2pi", "sqrt5-pu", "rect-exists"],
)
def test_exact_commands_stdout_bytes(tmp_path, capsys, args, lattice, expected):
    if lattice is not None:
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice))
        args = args + ["--lattice", str(path)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == expected


def test_export_counts_and_headers(tmp_path, capsys):
    params = tmp_path / "s.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    prefix = str(tmp_path / "grid")
    code, _, _ = run_cli(
        ["export", "--params", str(params), "--grid", "64", "64", "--out", prefix], capsys
    )
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "x,y," + ",".join("psi_%d" % i for i in range(1, 7))
    assert len(lines) == 1 + 64 * 64
    obj = (tmp_path / "grid.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == 64 * 64
    assert sum(1 for l in obj if l.startswith("f ")) == 2 * 63 * 63
    domain = json.loads((tmp_path / "grid.domain.json").read_text())
    poly = domain["polygon"]
    assert len(poly) == 4 and poly[0] == [0.0, 0.0]
    v1, v2 = domain["generators"]
    assert poly[1] == v1 and poly[3] == v2
    assert poly[2] == [pytest.approx(v1[0] + v2[0]), pytest.approx(v1[1] + v2[1])]


def test_export_pca_projection(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--h", "0.5", "--rho", "0.3", "--out", str(params)], capsys)
    prefix = str(tmp_path / "p")
    code, _, _ = run_cli(
        ["export", "--params", str(params), "--grid", "8", "8", "--projection", "pca3",
         "--out", prefix], capsys
    )
    assert code == 0
    obj = (tmp_path / "p.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == 64


def test_export_bad_grid_exit_2(tmp_path, capsys):
    params = tmp_path / "m.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, _, _ = run_cli(
        ["export", "--params", str(params), "--grid", "1", "5", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("bound", ["-1", "1e300"])
def test_export_refused_search_bound_writes_no_file(tmp_path, capsys, bound):
    params = tmp_path / "s.json"
    run_cli(["construct", "--preset", "sasahara", "--out", str(params)], capsys)
    code, _, err = run_cli(
        ["export", "--params", str(params), "--grid", "4", "4", "--search-bound", bound,
         "--out", str(tmp_path / "mesh")],
        capsys,
    )
    assert code == 2 and "search_bound" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_construct_takes_h_as_num_den(tmp_path, capsys):
    # "1/2" and "0.5" are the same double, so the same member
    outs = []
    for h in ("1/2", "0.5"):
        out = tmp_path / ("%s.json" % h.replace("/", "_"))
        code, _, _ = run_cli(["construct", "--h", h, "--rho", "0.3", "--out", str(out)], capsys)
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] and json.loads(outs[0])["h"] == 0.5


# lattice files for the malformed-input cases, by name
BAD_LATTICES = {
    "zero_den.json": {"gens": [["pi/0", "0"], ["0", "2*pi"]]},
    "number.json": {"gens": [[2, "0"], ["0", "2*pi"]]},
    "list.json": {"gens": [[["pi"], "0"], ["0", "2*pi"]]},
    "three_rows.json": {"gens": [["pi", "0"], ["0", "2*pi"], ["pi", "pi"]]},
    "std2pi.json": {"gens": [["2*pi", "0"], ["0", "2*pi"]]},
    # its dual circles at h = 1/2 span 2.7e9 values of m
    "fine.json": {"gens": [["1000000000*pi", "0"], ["0", "1000000000*pi"]]},
}


@pytest.mark.parametrize(
    "args, phrase",
    [
        (["torus-exists", "--h", "1/0"], "--h must be a finite rational number, got '1/0'"),
        (["construct", "--h", "1/0", "--rho", "0"], "--h must be a finite rational number, got '1/0'"),
        (["construct", "--h", "1e400", "--rho", "0"], "--h must be a rational in (0,1)"),
        (["construct", "--h", "nan", "--rho", "0"], "--h must be a finite rational number, got 'nan'"),
        (["construct", "--h", "1e-999999999", "--rho", "0"],
         "--h must be a finite rational number, got '1e-999999999'"),
        (["torus-exists", "--a", "1/0", "--b", "1/4"], "--a must be a finite rational number, got '1/0'"),
        (["torus-exists", "--a", "1/4", "--b", "1/0"], "--b must be a finite rational number, got '1/0'"),
        (["admissible", "--lattice", "{dir}/std2pi.json", "--h", "1/0"],
         "--h must be a finite rational number, got '1/0'"),
        (["admissible", "--lattice", "{dir}/zero_den.json", "--h", "1/2"], "'pi/0'"),
        (["admissible", "--lattice", "{dir}/number.json", "--h", "1/2"],
         "lattice entry must be a string such as '2*pi', got 2"),
        (["admissible", "--lattice", "{dir}/list.json", "--h", "1/2"],
         "lattice entry must be a string such as '2*pi', got ['pi']"),
        (["admissible", "--lattice", "{dir}/three_rows.json", "--h", "1/2"],
         "lattice input must be {'gens': [[a,b],[c,d]]}, got {'gens': [['pi', '0'], "),
        (["construct", "--h", "0.5"], "construct needs --h and --rho"),
        (["verify", "--params", "{dir}/member.json", "--tol", "bitension"],
         "tolerance override must look like name=value, got 'bitension'"),
        (["torus-exists", "--h", "1/2", "--a", "1/4", "--b", "1/4"],
         "give either --h, or both --a and --b"),
        (["torus-exists", "--a", "1/4"], "give either --h, or both --a and --b"),
        (["torus-exists"], "torus-exists needs --h or --a/--b"),
        (["torus-exists", "--a", "0", "--b", "1/4"], "--a and --b must be positive rationals"),
        (["torus-exists", "--a", "1/4", "--b=-1/4"], "--a and --b must be positive rationals"),
        # q = 10**200: the generators' squared lengths would leave the double range
        (["torus-exists", "--a", "1/" + str(10**400), "--b", "1/1"],
         "q must be a positive integer of at most 10**50"),
        # loops with no bound of their own, refused before they start
        (["verify", "--params", "{dir}/member.json", "--samples", "100000000000"],
         "samples must be a positive integer of at most 100000000, got 100000000000"),
        (["admissible", "--lattice", "{dir}/fine.json", "--h", "1/2"],
         "lattice must give circle walks of at most 10^8 values of m in all"),
    ],
    ids=[
        "torus-h-zero-den", "construct-h-zero-den", "construct-h-overflow", "construct-h-nan",
        "construct-h-huge-exponent",
        "torus-a-zero-den", "torus-b-zero-den", "admissible-h-zero-den", "entry-zero-den",
        "entry-number", "entry-list", "gens-three-rows", "construct-no-rho", "tol-no-equals",
        "h-with-a", "a-without-b", "neither", "a-zero", "b-negative", "torus-a-huge",
        "verify-samples-past-cap", "admissible-lattice-past-cap",
    ],
)
def test_malformed_input_exits_2_naming_it(tmp_path, capsys, args, phrase):
    for name, lattice in BAD_LATTICES.items():
        (tmp_path / name).write_text(json.dumps(lattice))
    run_cli(["construct", "--h", "0.5", "--rho", "0", "--out", str(tmp_path / "member.json")], capsys)
    code, out, err = run_cli([a.format(dir=tmp_path) for a in args], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and phrase in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, line",
    [
        (["construct", "--h", "1e400", "--rho", "0"],
         "error: --h must be a rational in (0,1), got 1e400\n"),
        (["construct", "--h", "0.5", "--rho", "abc"], "error: --rho must be a real number, got 'abc'\n"),
        # a = b = 1e-24, so h = 1/(1 + 4e-24) rounds to 1: the torus parameters are named
        (["torus-exists", "--a", "1/" + str(10**24), "--b", "1/" + str(10**24)],
         "error: p, q, r and t must give a mean curvature h that is a double below 1; "
         "(p, q, r, t) = (1, 1000000000000, 1, 1000000000000) gives 1 - h = 4e-24\n"),
    ],
    ids=["h-out-of-range-echoed", "rho-text", "torus-h-rounds-to-one"],
)
def test_refusal_is_one_short_line_naming_the_flag(capsys, args, line):
    assert run_cli(args, capsys) == (2, "", line)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bihsurf.cli", "torus-exists", "--h", "4/5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "case_i"
