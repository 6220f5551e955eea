import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cocontra import cli, finset, serialize
from cocontra.errors import (DEFAULT_BUDGET, BudgetExceeded, InvalidImage,
                             ParseError, charge)
from paper_checks import ev_map


BASE_DECLS = [
    {"kind": "finset", "name": "C", "elements": ["1", "2"]},
    {"kind": "finset", "name": "X", "elements": ["a", "b", "c"]},
    {"kind": "set_comodule", "name": "M", "carrier": "X", "base": "C",
     "phi": {"a": "1", "b": "2", "c": "2"}},
    {"kind": "contra_product", "name": "t", "base": "C",
     "fibers": {"1": ["p", "q"], "2": ["r", "s"]}},
    {"kind": "group_like_coalgebra", "name": "G", "field": "F2",
     "size": 2},
    {"kind": "graded_space", "name": "V", "field": "F2", "dims": {"0": 2}},
    {"kind": "cofree_comodule", "name": "TV", "coalgebra": "G", "on": "V"},
    {"kind": "free_contramodule", "name": "FV", "coalgebra": "G",
     "on": "V"},
]


def run_cli(tmp_path, manifest, argv_extra=()):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "report.json"
    code = cli.main(["run", str(path), "--out", str(out), *argv_extra])
    return code, json.loads(out.read_text())


def test_manifest_pass_exit_zero(tmp_path):
    manifest = {
        "declarations": BASE_DECLS,
        "jobs": [
            {"id": "j1", "command": "unique-comonoid", "args": {"base": "C"}},
            {"id": "j2", "command": "r", "args": {"target": "M"}},
            {"id": "j3", "command": "adjoint",
             "args": {"contramodule": "FV", "comodule": "TV"}},
        ],
    }
    code, report = run_cli(tmp_path, manifest, ("--oracle",))
    assert code == 0
    assert [j["status"] for j in report["jobs"]] == ["pass"] * 3
    assert report["jobs"][0]["counts"] == {"candidates": 16, "valid": 1}


def test_unique_comonoid_manifest_counts(tmp_path):
    manifest = {
        "declarations": [],
        "jobs": [{"id": "u3", "command": "unique-comonoid",
                  "args": {"size": 3}}],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 0
    assert report["jobs"][0]["counts"] == {"candidates": 729, "valid": 1}


def test_broken_coalgebra_fails_with_witness(tmp_path):
    manifest = {
        "declarations": [
            {"kind": "graded_space", "name": "W", "field": "Q",
             "dims": {"0": 2}, "labels": {"0": ["u", "z"]}},
            {"kind": "coalgebra", "name": "Cbad", "space": "W",
             "delta_blocks": {
                 "0": [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]]
             },
             "eps_blocks": {"0": [["1", "1"]]}},
        ],
        "jobs": [{"id": "j1", "command": "check",
                  "args": {"target": "Cbad"}}],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 1
    job = report["jobs"][0]
    assert job["status"] == "fail"
    assert job["witnesses"]  # a concrete witness travels with the failure


def test_empty_job_list_passes(tmp_path):
    code, report = run_cli(tmp_path, {"declarations": [], "jobs": []})
    assert code == 0
    assert report["jobs"] == []


def test_unknown_command_is_an_error(tmp_path):
    manifest = {"declarations": [],
                "jobs": [{"id": "j1", "command": "frobnicate"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(Exception):
        cli.run_manifest(json.loads(path.read_text()),
                         {"budget": 10**6, "oracle": False, "seed": None,
                          "timing": False, "parallel": False, "field": "Q"})


def test_budget_exceeded_surfaces_as_job_error(tmp_path):
    manifest = {
        "declarations": [],
        "jobs": [{"id": "j1", "command": "enumerate",
                  "args": {"carrier": 3, "base": 2}, "budget": 10}],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 2
    job = report["jobs"][0]
    assert job["status"] == "error"
    assert job["witnesses"][0]["error"] == "budget-exceeded"
    assert job["witnesses"][0]["projected"] == 3 ** 6


def test_reports_byte_identical_across_runs(tmp_path):
    manifest = {
        "declarations": BASE_DECLS,
        "jobs": [
            {"id": "a", "command": "lr", "args": {"target": "M"}},
            {"id": "b", "command": "kleisli",
             "args": {"coalgebra": "G", "dim": 2}},
            {"id": "c", "command": "adjoint",
             "args": {"random": {"count": 2, "max_dim": 2,
                                 "field": "F2"}}},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", str(path), "--seed", "11",
                     "--out", str(out1)]) == 0
    assert cli.main(["run", str(path), "--seed", "11",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# Recorded before the finite-set side moved to the one enumerator, label
# codec and decode tables of ``finset``; a change of odometer order or label
# strings anywhere on the set side changes these bytes.
SET_SIDE_GOLDEN_SHA256 = (
    "4a6276925a6f56cf0de3053c6ecf60ecac006f81ce74d5031bf2e0e80d256c20"
)


def _set_side_manifest():
    decls = [
        {"kind": "finset", "name": "C", "elements": ["1", "2"]},
        {"kind": "finset", "name": "X", "elements": ["a", "b", "c"]},
        {"kind": "finset", "name": "Y", "elements": ["d", "e"]},
        {"kind": "set_comodule", "name": "M", "carrier": "X", "base": "C",
         "phi": {"a": "1", "b": "2", "c": "2"}},
        {"kind": "set_comodule", "name": "N", "carrier": "Y", "base": "C",
         "phi": {"d": "1", "e": "2"}},
        {"kind": "contra_product", "name": "s", "base": "C",
         "fibers": {"1": ["u"], "2": ["v", "w"]}},
        {"kind": "contra_product", "name": "t", "base": "C",
         "fibers": {"1": ["p", "q"], "2": ["r", "s"]}},
        {"kind": "finmap", "name": "f", "dom": "C", "cod": "C",
         "table": {"1": "2", "2": "2"}},
    ]
    jobs = [
        {"id": "r", "command": "r", "args": {"target": "M"}},
        {"id": "lr", "command": "lr", "args": {"target": "M"}},
        {"id": "l", "command": "l", "args": {"target": "t"}},
        {"id": "check", "command": "check", "args": {"target": "s"}},
        {"id": "decompose", "command": "decompose",
         "args": {"target": "t", "basepoint": "{1:q,2:r}"}},
        {"id": "hom-contra", "command": "hom",
         "args": {"source": "s", "target": "t"}},
        {"id": "hom-comodule", "command": "hom",
         "args": {"source": "M", "target": "N"}},
        {"id": "enumerate", "command": "enumerate",
         "args": {"carrier": 2, "base": 2}},
        {"id": "induction", "command": "induction-adjunction",
         "args": {"along": "f", "fiber_bound": 2}},
        {"id": "equivalence", "command": "equivalence",
         "args": {"max_carrier": 3, "max_base": 2, "max_fiber": 2}},
    ]
    return {"declarations": decls, "jobs": jobs}


GOLDEN_CTX = {"budget": 10**6, "oracle": True, "seed": 0, "timing": False}


def test_set_side_report_matches_golden_digest():
    report = cli.run_manifest(_set_side_manifest(), GOLDEN_CTX)
    assert {j["status"] for j in report["jobs"]} == {"pass"}
    digest = hashlib.sha256(serialize.canonical_bytes(report)).hexdigest()
    assert digest == SET_SIDE_GOLDEN_SHA256


# Recorded before ``exactlin.LinMap`` moved to sparse column reads and
# writes; a change of any scalar, block layout or label order on the linear
# side changes these bytes.
LINEAR_SIDE_GOLDEN_SHA256 = (
    "382114b57c82ceee1692f54bff08321aa488ed091908e35dfa522646c7003927"
)


def _conjugated_group_like(name, field, space, fractions):
    """Two group-likes g0, g1 seen in the basis a = g0, b = g0 + 2 g1; over
    Q the structure constants are fractions, over F3 they are reduced."""
    if fractions:
        delta_b = [1, "3/2"], [0, "-1/2"], [0, "-1/2"], [0, "1/2"]
        eps_b = 3
    else:  # F3: 3/2 = 0, -1/2 = 1, 1/2 = 2
        delta_b = [1, 0], [0, 1], [0, 1], [0, 2]
        eps_b = 0
    return [
        {"kind": "graded_space", "name": space, "field": field,
         "dims": {"0": 2}, "labels": {"0": ["a", "b"]}},
        {"kind": "coalgebra", "name": name, "space": space,
         "delta_blocks": {"0": [list(r) for r in delta_b]},
         "eps_blocks": {"0": [[1, eps_b]]}},
    ]


def _linear_side_manifest():
    decls = [
        # Q: the binomial coalgebra with z in degree 1, so odd degrees,
        # braiding signs and Koszul signs all reach the report
        {"kind": "poly_coalgebra", "name": "P1", "truncation": 1,
         "z_degree": 1, "field": "Q"},
        {"kind": "poly_coalgebra", "name": "P2", "truncation": 2,
         "z_degree": 1, "field": "Q"},
        {"kind": "graded_space", "name": "W", "field": "Q",
         "dims": {"0": 1, "1": 1}, "prefix": "w"},
        {"kind": "cofree_comodule", "name": "TW1", "coalgebra": "P1",
         "on": "W"},
        {"kind": "free_contramodule", "name": "FW1", "coalgebra": "P1",
         "on": "W"},
        {"kind": "cofree_comodule", "name": "TW2", "coalgebra": "P2",
         "on": "W"},
        {"kind": "free_contramodule", "name": "FW2", "coalgebra": "P2",
         "on": "W"},
        {"kind": "coalgebra_morphism", "name": "inc", "dom": "P1",
         "cod": "P2", "blocks": {"0": [[1]], "1": [[1]]}},
        # P1 is cocommutative, so its comultiplication is a left coaction
        {"kind": "graded_space", "name": "Z", "field": "Q",
         "dims": {"0": 1, "1": 1}, "labels": {"0": ["z0"], "1": ["z1"]}},
        {"kind": "vcomodule", "name": "LP1", "coalgebra": "P1", "space": "Z",
         "side": "left", "rho_blocks": {"0": [[1]], "1": [[1], [1]]}},
        *_conjugated_group_like("DQ", "Q", "SQ", fractions=True),
        {"kind": "graded_space", "name": "U", "field": "Q",
         "dims": {"0": 1}, "prefix": "u"},
        {"kind": "cofree_comodule", "name": "TDQ", "coalgebra": "DQ",
         "on": "U"},
        {"kind": "free_contramodule", "name": "FDQ", "coalgebra": "DQ",
         "on": "U"},
        # F2: group-likes, with the inclusion of one into two
        {"kind": "group_like_coalgebra", "name": "G1", "field": "F2",
         "size": 1},
        {"kind": "group_like_coalgebra", "name": "G2", "field": "F2",
         "size": 2},
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 2}, "prefix": "v"},
        {"kind": "cofree_comodule", "name": "TV1", "coalgebra": "G1",
         "on": "V"},
        {"kind": "free_contramodule", "name": "FV1", "coalgebra": "G1",
         "on": "V"},
        {"kind": "cofree_comodule", "name": "TV2", "coalgebra": "G2",
         "on": "V"},
        {"kind": "free_contramodule", "name": "FV2", "coalgebra": "G2",
         "on": "V"},
        {"kind": "coalgebra_morphism", "name": "gin", "dom": "G1",
         "cod": "G2", "blocks": {"0": [[1], [0]]}},
        {"kind": "graded_space", "name": "GS", "field": "F2",
         "dims": {"0": 2}, "labels": {"0": ["g0", "g1"]}},
        {"kind": "vcomodule", "name": "LG2", "coalgebra": "G2",
         "space": "GS", "side": "left",
         "rho_blocks": {"0": [[1, 0], [0, 0], [0, 0], [0, 1]]}},
        # F3: the conjugated group-likes with reduced constants
        *_conjugated_group_like("D3", "F3", "S3", fractions=False),
        {"kind": "graded_space", "name": "Y", "field": "F3",
         "dims": {"0": 1}, "prefix": "y"},
        {"kind": "cofree_comodule", "name": "TD3", "coalgebra": "D3",
         "on": "Y"},
        {"kind": "free_contramodule", "name": "FD3", "coalgebra": "D3",
         "on": "Y"},
    ]
    jobs = []
    for tag, c, m, p in (("p1", "P1", "TW1", "FW1"),
                         ("dq", "DQ", "TDQ", "FDQ"),
                         ("g2", "G2", "TV2", "FV2"),
                         ("d3", "D3", "TD3", "FD3")):
        jobs += [
            {"id": f"{tag}-check-c", "command": "check",
             "args": {"target": c}},
            {"id": f"{tag}-check-m", "command": "check",
             "args": {"target": m}},
            {"id": f"{tag}-check-p", "command": "check",
             "args": {"target": p}},
            {"id": f"{tag}-r", "command": "r", "args": {"target": m}},
            {"id": f"{tag}-l", "command": "l", "args": {"target": p}},
            {"id": f"{tag}-lr", "command": "lr", "args": {"target": m}},
            {"id": f"{tag}-hom-co", "command": "hom",
             "args": {"source": m, "target": m}},
            {"id": f"{tag}-hom-contra", "command": "hom",
             "args": {"source": p, "target": p}},
            {"id": f"{tag}-adjoint", "command": "adjoint",
             "args": {"contramodule": p, "comodule": m}},
            {"id": f"{tag}-cohom", "command": "cohom",
             "args": {"comodule": m, "contramodule": p}},
            {"id": f"{tag}-bridge", "command": "bridge",
             "args": {"coalgebra": c, "comodule": m, "contramodule": p}},
            {"id": f"{tag}-kleisli", "command": "kleisli",
             "args": {"coalgebra": c, "dim": 1}},
        ]
    jobs += [
        {"id": "p1-cotensor", "command": "cotensor",
         "args": {"left": "TW1", "right": "LP1"}},
        {"id": "g2-cotensor", "command": "cotensor",
         "args": {"left": "TV2", "right": "LG2"}},
        {"id": "p1-kleisli-w", "command": "kleisli",
         "args": {"coalgebra": "P1", "on": "W"}},
    ]
    for tag, f, c, chat, (m, p), (m2, p2) in (
            ("p", "inc", "P1", "P2", ("TW1", "FW1"), ("TW2", "FW2")),
            ("g", "gin", "G1", "G2", ("TV1", "FV1"), ("TV2", "FV2"))):
        along = {"along": f, "dom_coalgebra": c, "cod_coalgebra": chat}
        jobs += [
            {"id": f"{tag}-restrict-m", "command": "restrict",
             "args": {**along, "target": m}},
            {"id": f"{tag}-restrict-p", "command": "restrict",
             "args": {**along, "target": p}},
            {"id": f"{tag}-induce-m", "command": "induce",
             "args": {**along, "target": m2}},
            {"id": f"{tag}-induce-p", "command": "induce",
             "args": {**along, "target": p2}},
        ]
    return {"declarations": decls, "jobs": jobs}


def test_linear_side_report_matches_golden_digest():
    report = cli.run_manifest(_linear_side_manifest(), GOLDEN_CTX)
    assert [j["id"] for j in report["jobs"] if j["status"] != "pass"] == []
    digest = hashlib.sha256(serialize.canonical_bytes(report)).hexdigest()
    assert digest == LINEAR_SIDE_GOLDEN_SHA256


def test_single_command_r_on_file(tmp_path):
    bundle = {
        "declarations": BASE_DECLS[:3],
        "main": "M",
    }
    f = tmp_path / "comodule.json"
    f.write_text(json.dumps(bundle))
    out = tmp_path / "report.json"
    assert cli.main(["r", str(f), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    result = report["jobs"][0]["result"]
    assert result["kind"] == "contra_product"
    assert result["fibers"] == {"1": ["a"], "2": ["b", "c"]}


def test_single_command_decompose(tmp_path):
    bundle = {"declarations": [BASE_DECLS[0], BASE_DECLS[3]], "main": "t"}
    f = tmp_path / "contra.json"
    f.write_text(json.dumps(bundle))
    out = tmp_path / "report.json"
    assert cli.main(["decompose", str(f), "--basepoint", "{1:p,2:r}",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    sizes = report["jobs"][0]["counts"]["fiber_sizes"]
    assert sizes == [2, 2]


def test_demo_subcommand_exit_and_sizes(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["demo-noncocontinuous", "--c-size", "2",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["jobs"][0]["counts"]["sizes"] == [3, 1]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["run", str(bad)]) == 2


def test_duplicate_names_rejected():
    doc = {
        "declarations": [
            {"kind": "finset", "name": "A", "elements": ["x"]},
            {"kind": "finset", "name": "A", "elements": ["y"]},
        ]
    }
    with pytest.raises(ParseError):
        serialize.parse_bundle(doc)


def test_unresolved_reference_rejected():
    doc = {
        "declarations": [
            {"kind": "finmap", "name": "f", "dom": "missing",
             "cod": "missing", "table": {}},
        ]
    }
    with pytest.raises(ParseError):
        serialize.parse_bundle(doc)


# declarations their parsers reject, each named "bad"
REJECTED_DECLS = {
    "delta-too-tall": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}},
        {"kind": "coalgebra", "name": "bad", "space": "V",
         "delta_blocks": {"0": [["1"], ["1"]]},
         "eps_blocks": {"0": [["1"]]}},
    ],
    "ragged-rows": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 2}},
        {"kind": "linmap", "name": "bad", "dom": "V", "cod": "V",
         "blocks": {"0": [["1", "0"], ["1"]]}},
    ],
    "empty-fiber": [
        {"kind": "finset", "name": "C", "elements": ["1", "2"]},
        {"kind": "contra_product", "name": "bad", "base": "C",
         "fibers": {"1": [], "2": ["r"]}},
    ],
    "partial-finmap": [
        {"kind": "finset", "name": "C", "elements": ["1", "2"]},
        {"kind": "finset", "name": "X", "elements": ["a", "b"]},
        {"kind": "finmap", "name": "bad", "dom": "X", "cod": "C",
         "table": {"a": "1"}},
    ],
}


@pytest.mark.parametrize("case", sorted(REJECTED_DECLS))
def test_rejected_declaration_is_a_parse_error(case):
    with pytest.raises(ParseError) as exc:
        serialize.parse_bundle({"declarations": REJECTED_DECLS[case]})
    assert exc.value.where == "bad"


def test_rejected_declaration_exits_2_without_asserts(tmp_path):
    # under -O an assert checks nothing, so input checks must be raises
    import subprocess
    import sys

    src = Path(cli.__file__).parents[1]
    for case, decls in sorted(REJECTED_DECLS.items()):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps({"declarations": decls, "jobs": []}))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "cocontra.cli", "run", str(path)],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2, (case, proc.stderr)
        assert proc.stderr.startswith("parse error at bad: "), (
            case, proc.stderr)


def test_adjoint_on_an_invalid_comodule_is_an_error_without_asserts(
        tmp_path):
    """Under -O an assert checks nothing: the adjoint job still refuses a
    comodule and contramodule over a coalgebra whose comultiplication and
    counit are zero, through the raised check of the coalgebra."""
    import subprocess
    import sys

    zero = {"0": [[0, 0]] * 4}
    doc = {"declarations": [
        {"kind": "graded_space", "name": "CS", "field": "F2",
         "dims": {"0": 2}, "prefix": "c"},
        {"kind": "coalgebra", "name": "C", "space": "CS",
         "delta_blocks": zero, "eps_blocks": {"0": [[0, 0]]}},
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"},
        {"kind": "cofree_comodule", "name": "TV", "coalgebra": "C",
         "on": "V"},
        {"kind": "free_contramodule", "name": "FV", "coalgebra": "C",
         "on": "V"},
    ], "jobs": [{"id": "adj", "command": "adjoint",
                 "args": {"contramodule": "FV", "comodule": "TV"}}]}
    path, out = tmp_path / "manifest.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cocontra.cli", "run", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)},
    )
    assert out.exists(), proc.stderr
    (entry,) = json.loads(out.read_text())["jobs"]
    assert entry["status"] == "error", entry
    assert entry["witnesses"][0]["error"] == "InvalidImage"
    assert entry["witnesses"][0]["message"].startswith(
        "C is not a coalgebra")


def test_set_side_reports_are_the_same_under_python_O(tmp_path):
    """The set-side checks raise rather than assert: a manifest of
    enumerate, unique-comonoid, decompose and equivalence jobs writes the
    same report bytes with and without -O, including the error entry of a
    decompose on a table that is no contramodule."""
    import subprocess
    import sys

    doc = {"declarations": [
        {"kind": "finset", "name": "C", "elements": ["1", "2"]},
        {"kind": "finset", "name": "X", "elements": ["a", "b"]},
        {"kind": "contra_product", "name": "t", "base": "C",
         "fibers": {"1": ["p", "q"], "2": ["r", "s"]}},
        {"kind": "contra_table", "name": "bad", "carrier": "X", "base": "C",
         "theta": {"{1:a,2:a}": "a", "{1:a,2:b}": "a",
                   "{1:b,2:a}": "a", "{1:b,2:b}": "b"}},
    ], "jobs": [
        {"id": "enumerate", "command": "enumerate",
         "args": {"carrier": 3, "base": 2}},
        {"id": "unique", "command": "unique-comonoid", "args": {"size": 3}},
        {"id": "decompose", "command": "decompose",
         "args": {"target": "t", "basepoint": "{1:p,2:r}"}},
        {"id": "decompose-bad", "command": "decompose",
         "args": {"target": "bad", "basepoint": "a"}},
        {"id": "equivalence", "command": "equivalence",
         "args": {"max_carrier": 3, "max_base": 2, "max_fiber": 2}},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    src = Path(cli.__file__).parents[1]
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(reports)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "cocontra.cli", "run",
             str(path), "--oracle", "--out", str(out)],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        # one job ends as an error entry
        assert proc.returncode == 2, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    entries = {j["id"]: j for j in json.loads(reports[0])["jobs"]}
    assert {k: j["status"] for k, j in entries.items()} == {
        "enumerate": "pass", "unique": "pass", "decompose": "pass",
        "decompose-bad": "error", "equivalence": "pass"}
    assert entries["decompose-bad"]["witnesses"][0]["error"] == (
        "InvalidConstruction")


def _f2_coalgebra(name, delta, eps):
    """A 2-dimensional F2 coalgebra declaration with its cofree comodule
    and free contramodule on V and its identity morphism."""
    return [
        {"kind": "graded_space", "name": f"{name}S", "field": "F2",
         "dims": {"0": 2}, "prefix": "c"},
        {"kind": "coalgebra", "name": name, "space": f"{name}S",
         "delta_blocks": {"0": delta}, "eps_blocks": {"0": eps}},
        {"kind": "cofree_comodule", "name": f"T{name}", "coalgebra": name,
         "on": "V"},
        {"kind": "free_contramodule", "name": f"F{name}", "coalgebra": name,
         "on": "V"},
        {"kind": "coalgebra_morphism", "name": f"id{name}", "dom": name,
         "cod": name, "blocks": {"0": [[1, 0], [0, 1]]}},
    ]


# neither is coassociative or counital; on DESCENT's free contramodule the
# coaction of L does not descend to the quotient, yet the map it would
# induce there passes the comodule axioms (a seeded search over random
# 2-dimensional F2 tables found it)
NONCOASSOCIATIVE = ([[0, 1], [0, 1], [0, 0], [0, 1]], [[0, 0]])
DESCENT = ([[0, 0], [1, 0], [0, 0], [1, 1]], [[1, 1]])


def test_only_the_descent_check_refuses_l_over_descent():
    """The candidate coaction on the quotient of F(V) (x) C over DESCENT
    is a comodule; only the check that it descends refuses L's data.
    (``functor_L`` refuses DESCENT first, as not a coalgebra.)"""
    from cocontra import coalg
    from cocontra.exactlin import (assoc_inv, coequalizer_lin, compose,
                                   hom_space, identity_map,
                                   tensor_map)

    env = serialize.parse_bundle({"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"}, *_f2_coalgebra("D", *DESCENT)]})
    p, c = env.objects["FD"], env.objects["D"]
    with pytest.raises(InvalidImage, match="C is not a coalgebra"):
        coalg.functor_L(p)
    with pytest.raises(InvalidImage, match="does not descend"):
        coalg.functor_L_data(p)
    # functor_L_data's construction, without its descent check
    cs, x = c.space, p.space
    delta_map = tensor_map(p.theta, identity_map(cs))
    beta_map = compose(
        tensor_map(ev_map(cs, x), identity_map(cs)),
        compose(assoc_inv(hom_space(cs, x), cs, cs),
                tensor_map(identity_map(hom_space(cs, x)), c.delta)))
    quot = coequalizer_lin(delta_map, beta_map, prefix="l")
    w = compose(tensor_map(quot.project, identity_map(cs)),
                compose(assoc_inv(x, cs, cs),
                        tensor_map(identity_map(x), c.delta)))
    assert compose(w, delta_map) != compose(w, beta_map)
    candidate = coalg.VComodule(c, quot.space, compose(w, quot.section))
    assert coalg.validate_comodule(candidate)["ok"]


def test_linear_reports_are_the_same_under_python_O(tmp_path):
    """Every linear check raises rather than asserts: over coalgebras that
    break the axioms, the l, adjoint, lr, kleisli, bridge, hom, restrict
    and induce jobs write the same report bytes with and without -O, and
    none ends in an AssertionError."""
    import subprocess
    import sys

    along = {"along": "idN", "dom_coalgebra": "N", "cod_coalgebra": "N"}
    doc = {"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"},
        *_f2_coalgebra("N", *NONCOASSOCIATIVE),
        *_f2_coalgebra("D", *DESCENT),
    ], "jobs": [
        {"id": "l", "command": "l", "args": {"target": "FN"}},
        {"id": "l-descent", "command": "l", "args": {"target": "FD"}},
        {"id": "adjoint", "command": "adjoint",
         "args": {"contramodule": "FN", "comodule": "TN"}},
        {"id": "lr", "command": "lr", "args": {"target": "TN"}},
        {"id": "kleisli", "command": "kleisli",
         "args": {"coalgebra": "N", "dim": 1}},
        {"id": "bridge", "command": "bridge",
         "args": {"coalgebra": "N", "comodule": "TN",
                  "contramodule": "FN"}},
        {"id": "hom", "command": "hom",
         "args": {"source": "TN", "target": "TN"}},
        {"id": "restrict-m", "command": "restrict",
         "args": {**along, "target": "TN"}},
        {"id": "restrict-p", "command": "restrict",
         "args": {**along, "target": "FN"}},
        {"id": "induce-m", "command": "induce",
         "args": {**along, "target": "TN"}},
        {"id": "induce-p", "command": "induce",
         "args": {**along, "target": "FN"}},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    src = Path(cli.__file__).parents[1]
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(reports)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "cocontra.cli", "run",
             str(path), "--oracle", "--out", str(out)],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    entries = {j["id"]: j for j in json.loads(reports[0])["jobs"]}
    failures = {k: j["witnesses"][0]["error"] for k, j in entries.items()
                if j["status"] == "error"}
    assert "AssertionError" not in failures.values()
    assert failures == {
        "l": "InvalidImage", "l-descent": "InvalidImage",
        "adjoint": "InvalidImage", "lr": "InvalidImage",
        "kleisli": "InvalidImage", "bridge": "InvalidImage",
        "restrict-m": "InvalidImage", "restrict-p": "InvalidImage",
        "induce-m": "InvalidImage", "induce-p": "InvalidImage"}
    assert entries["hom"]["status"] == "pass"
    assert entries["l-descent"]["witnesses"][0]["message"].startswith(
        "C is not a coalgebra")


# coassociative 2-dimensional F2 coalgebras that break one counit law,
# each as (Delta's rows, eps's row, the law that fails): checks of R(m)
# and L(p) on the cofree and free objects over V did not see them, so r
# and lr passed and kleisli failed on the first six, and l passed on the
# last six
COUNIT_BREAKERS = [
    (delta, eps, law)
    for delta, epss, law in (
        ([[0, 0], [0, 0], [1, 0], [0, 1]], ([0, 1], [1, 1]), "right"),
        ([[1, 0], [0, 1], [0, 0], [0, 0]], ([1, 0], [1, 1]), "right"),
        ([[1, 0], [0, 1], [1, 0], [0, 1]], ([0, 1], [1, 0]), "right"),
        ([[0, 0], [1, 0], [0, 0], [0, 1]], ([0, 1], [1, 1]), "left"),
        ([[1, 0], [0, 0], [0, 1], [0, 0]], ([1, 0], [1, 1]), "left"),
        ([[1, 0], [1, 0], [0, 1], [0, 1]], ([0, 1], [1, 0]), "left"),
    )
    for eps in epss
]


@pytest.mark.parametrize("delta, eps, law", COUNIT_BREAKERS)
def test_every_linear_job_refuses_a_coalgebra_that_breaks_a_counit_law(
        delta, eps, law):
    """The r, l, lr, kleisli, adjoint and bridge jobs check the coalgebra
    itself, so each refuses one that is coassociative but not counital,
    whatever the images of its free and cofree objects look like."""
    from cocontra import coalg

    env = serialize.parse_bundle({"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"},
        *_f2_coalgebra("C", delta, [eps])]})
    failures = coalg.validate_coalgebra(env.objects["C"])["failures"]
    assert [f["law"] for f in failures] == [f"{law} counit"]
    ctx = {"budget": 10**6, "oracle": False, "seed": 1, "timing": False}
    for command, args in (
            ("r", {"target": "TC"}), ("l", {"target": "FC"}),
            ("lr", {"target": "TC"}),
            ("kleisli", {"coalgebra": "C", "dim": 1}),
            ("adjoint", {"contramodule": "FC", "comodule": "TC"}),
            ("bridge", {"coalgebra": "C", "comodule": "TC",
                        "contramodule": "FC"})):
        entry = cli.run_job(env, {"command": command, "args": args}, ctx)
        assert entry["status"] == "error", (command, entry)
        (witness,) = entry["witnesses"]
        assert witness == {
            "error": "InvalidImage",
            "message": f"C is not a coalgebra ({law} counit fails)"}, command


def test_bridge_refuses_a_contramodule_over_another_coalgebra():
    """The bridge certificate checks one coalgebra, the comodule's, so the
    contramodule must live over it too; before, one over a coalgebra that
    breaks a counit law passed."""
    delta, eps, _ = COUNIT_BREAKERS[0]
    grouplike = ([[1, 0], [0, 0], [0, 0], [0, 1]], [[1, 1]])
    env = serialize.parse_bundle({"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"},
        *_f2_coalgebra("G", *grouplike), *_f2_coalgebra("B", delta, [eps])]})
    ctx = {"budget": 10**6, "oracle": False, "seed": 1, "timing": False}
    args = {"coalgebra": "G", "comodule": "TG", "contramodule": "FG"}
    entry = cli.run_job(env, {"command": "bridge", "args": args}, ctx)
    assert entry["status"] == "pass", entry
    args["contramodule"] = "FB"
    entry = cli.run_job(env, {"command": "bridge", "args": args}, ctx)
    assert entry["status"] == "error"
    assert entry["witnesses"][0]["error"] == "CoalgebraMismatch"


def test_bridge_checks_and_ties_its_coalgebra_argument():
    """``coalgebra`` is checked even without a comodule, and a comodule or
    contramodule must live over it; before, a coalgebra that breaks a
    counit law passed on its own and beside objects over a valid one,
    reporting its own ``dual_algebra_dims``."""
    delta, eps, law = COUNIT_BREAKERS[0]
    grouplike = ([[1, 0], [0, 0], [0, 0], [0, 1]], [[1, 1]])
    env = serialize.parse_bundle({"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}, "prefix": "v"},
        *_f2_coalgebra("G", *grouplike), *_f2_coalgebra("B", delta, [eps])]})
    ctx = {"budget": 10**6, "oracle": False, "seed": 1, "timing": False}

    def witness(**args):
        entry = cli.run_job(env, {"command": "bridge", "args": args}, ctx)
        assert entry["status"] == "error", entry
        (got,) = entry["witnesses"]
        return got

    assert witness(coalgebra="B") == {
        "error": "InvalidImage",
        "message": f"C is not a coalgebra ({law} counit fails)"}
    for args in ({"coalgebra": "B", "comodule": "TG", "contramodule": "FG"},
                 {"coalgebra": "G", "comodule": "TB", "contramodule": "FG"},
                 {"coalgebra": "G", "comodule": "TG", "contramodule": "FB"}):
        assert witness(**args)["error"] == "CoalgebraMismatch", args
    entry = cli.run_job(env, {"command": "bridge",
                              "args": {"coalgebra": "G"}}, ctx)
    assert entry["status"] == "pass", entry


# declarations whose fields have the wrong type or sign, each refused with
# the message that follows it
WRONG_FIELDS = {
    "finset-int": ({"kind": "finset", "elements": 5},
                   "finset 'bad' rejected: elements must be a list of "
                   "strings, got 5"),
    "finset-string": ({"kind": "finset", "elements": "ab"},
                      "finset 'bad' rejected: elements must be a list of "
                      "strings, got 'ab'"),
    "dims-string": ({"kind": "graded_space", "field": "F2",
                     "dims": {"0": "2"}},
                    "graded_space 'bad' rejected: dims 0 must be an int of "
                    "at least 0, got '2'"),
    "dims-negative": ({"kind": "graded_space", "field": "F2",
                       "dims": {"0": -1}},
                      "graded_space 'bad' rejected: dims 0 must be an int "
                      "of at least 0, got -1"),
    "dims-list": ({"kind": "graded_space", "field": "F2", "dims": [2]},
                  "graded_space 'bad' rejected: 'list' object has no "
                  "attribute 'items'"),
    "size-string": ({"kind": "group_like_coalgebra", "field": "F2",
                     "size": "2"},
                    "group_like_coalgebra 'bad' rejected: size must be an "
                    "int of at least 0, got '2'"),
    "size-negative": ({"kind": "group_like_coalgebra", "field": "F2",
                       "size": -1},
                      "group_like_coalgebra 'bad' rejected: size must be "
                      "an int of at least 0, got -1"),
    "truncation-string": ({"kind": "poly_coalgebra", "field": "Q",
                           "truncation": "2"},
                          "poly_coalgebra 'bad' rejected: truncation must "
                          "be an int of at least 0, got '2'"),
    "truncation-negative": ({"kind": "poly_coalgebra", "field": "Q",
                             "truncation": -1},
                            "poly_coalgebra 'bad' rejected: truncation "
                            "must be an int of at least 0, got -1"),
    "truncation-bool": ({"kind": "poly_coalgebra", "field": "Q",
                         "truncation": True},
                        "poly_coalgebra 'bad' rejected: truncation must be "
                        "an int of at least 0, got True"),
    "z_degree-string": ({"kind": "poly_coalgebra", "field": "Q",
                         "truncation": 2, "z_degree": "1"},
                        "poly_coalgebra 'bad' rejected: z_degree must be "
                        "an int, got '1'"),
    "labels-string": ({"kind": "graded_space", "field": "F2",
                       "dims": {"0": 2}, "labels": {"0": "ab"}},
                      "graded_space 'bad' rejected: labels 0 must be a "
                      "list of strings, got 'ab'"),
    "side-unknown": ({"kind": "vcomodule", "coalgebra": "G", "space": "V",
                      "side": "up", "rho_blocks": {"0": [["1"]]}},
                     "vcomodule 'bad' rejected: side must be 'right' or "
                     "'left', got 'up'"),
    "degree-string": ({"kind": "linmap", "dom": "V", "cod": "V",
                       "degree": "1", "blocks": {}},
                      "linmap 'bad' rejected: unsupported operand type(s) "
                      "for +: 'int' and 'str'"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize("case", sorted(WRONG_FIELDS))
def test_field_of_the_wrong_type_is_a_parse_error(tmp_path, case, flags):
    """A declaration field of the wrong type or sign ends the run as a
    parse error with exit code 2, not a traceback, with and without -O."""
    import subprocess
    import sys

    decl, message = WRONG_FIELDS[case]
    doc = {"declarations": [
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}},
        {"kind": "group_like_coalgebra", "name": "G", "field": "F2",
         "size": 1},
        {**decl, "name": "bad"}], "jobs": []}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "cocontra.cli", "run", str(path)],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"parse error at bad: {message}\n"


@pytest.mark.parametrize("carrier, message", [
    # a contra_table whose carrier names a finmap, not a finset
    ("f", "parse error at T: contra_table 'T' rejected: 'f' is a finmap "
          "declaration, expected a finset\n"),
    (["X"], "parse error at ['X']: unresolved reference ['X']\n"),
])
def test_reference_of_the_wrong_kind_is_a_parse_error(tmp_path, capsys,
                                                      carrier, message):
    decls = [
        {"kind": "finset", "name": "C", "elements": ["1"]},
        {"kind": "finset", "name": "X", "elements": ["a", "b"]},
        {"kind": "finmap", "name": "f", "dom": "X", "cod": "C",
         "table": {"a": "1", "b": "1"}},
        {"kind": "contra_table", "name": "T", "carrier": carrier,
         "base": "C", "theta": {"{1:a}": "a", "{1:b}": "b"}},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"declarations": decls, "jobs": []}))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("decl", [
    {"kind": "finset", "name": ["C"], "elements": ["1"]},
    {"kind": ["finset"], "name": "C", "elements": ["1"]},
])
def test_declaration_kind_and_name_must_be_strings(tmp_path, capsys, decl):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"declarations": [decl], "jobs": []}))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error at {decl}: declaration needs 'kind' and 'name' "
        "strings\n")


def test_canonical_round_trip_is_byte_identical(tmp_path):
    doc = {
        "declarations": BASE_DECLS,
        "jobs": [{"args": {"target": "M"}, "command": "r", "id": "j1"}],
        "version": "1",
    }
    canon = serialize.canonical_bytes(doc)
    f = tmp_path / "canonical.json"
    f.write_bytes(canon)
    parsed = serialize.load_document(str(f))
    assert serialize.canonical_bytes(parsed) == canon


def test_linear_declarations_parse_with_exact_scalars(tmp_path):
    manifest = {
        "declarations": [
            {"kind": "graded_space", "name": "V", "field": "Q",
             "dims": {"0": 2}},
            {"kind": "linmap", "name": "f", "dom": "V", "cod": "V",
             "degree": 0,
             "blocks": {"0": [["1/2", "0"], ["-3/4", "1"]]}},
            {"kind": "poly_coalgebra", "name": "P", "truncation": 2,
             "z_degree": 0, "field": "Q"},
        ],
        "jobs": [{"id": "j1", "command": "check", "args": {"target": "P"}}],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 0


def test_randomized_jobs_require_a_seed(tmp_path):
    manifest = {
        "declarations": [],
        "jobs": [{"id": "j1", "command": "adjoint",
                  "args": {"random": {"count": 1, "max_dim": 2,
                                      "field": "F2"}}}],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 2
    assert report["jobs"][0]["status"] == "error"


def test_seed_recorded_in_report(tmp_path):
    manifest = {"declarations": [], "jobs": []}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "r.json"
    cli.main(["run", str(path), "--seed", "7", "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 7


def statuses(report):
    return {j["id"]: j["status"] for j in report["jobs"]}


def test_bad_jobs_become_error_entries(tmp_path):
    manifest = {
        "declarations": BASE_DECLS,
        "jobs": [
            {"id": "ok", "command": "r", "args": {"target": "M"}},
            {"id": "no-target", "command": "r", "args": {}},
            {"id": "wrong-kind", "command": "r", "args": {"target": "C"}},
        ],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 2
    assert statuses(report) == {"ok": "pass", "no-target": "error",
                                "wrong-kind": "error"}
    errors = {j["id"]: j["witnesses"][0] for j in report["jobs"]
              if j["status"] == "error"}
    assert {k: e["error"] for k, e in errors.items()} == {
        "no-target": "ParseError", "wrong-kind": "ParseError"}
    assert errors["no-target"]["message"] == (
        "r: missing argument 'target' (the name of a set_comodule / "
        "vcomodule / cofree_comodule declaration)")
    assert errors["wrong-kind"]["message"] == (
        "r: argument 'target' expects the name of a set_comodule / "
        "vcomodule / cofree_comodule declaration, got 'C' (finset)")


# A declaration of each kind the malformed jobs below name, and one valid
# set of arguments per command, from which each case changes one argument.
MALFORMED_DECLS = BASE_DECLS + [
    {"kind": "finmap", "name": "f", "dom": "C", "cod": "C",
     "table": {"1": "2", "2": "2"}},
    {"kind": "group_like_coalgebra", "name": "G1", "field": "F2", "size": 1},
    {"kind": "coalgebra_morphism", "name": "gin", "dom": "G1", "cod": "G",
     "blocks": {"0": [[1], [0]]}},
    {"kind": "graded_space", "name": "GS", "field": "F2", "dims": {"0": 2},
     "labels": {"0": ["g0", "g1"]}},
    {"kind": "vcomodule", "name": "LG", "coalgebra": "G", "space": "GS",
     "side": "left",
     "rho_blocks": {"0": [[1, 0], [0, 0], [0, 0], [0, 1]]}},
]

VALID_ARGS = {
    "check": {"target": "M"},
    "unique-comonoid": {"base": "C"},
    "r": {"target": "M"},
    "l": {"target": "t"},
    "lr": {"target": "M"},
    "adjoint": {"contramodule": "FV", "comodule": "TV"},
    "decompose": {"target": "t", "basepoint": "{1:p,2:r}"},
    "enumerate": {"carrier": 2, "base": 2},
    "hom": {"source": "M", "target": "M"},
    "cotensor": {"left": "TV", "right": "LG"},
    "cohom": {"comodule": "TV", "contramodule": "FV"},
    "restrict": {"along": "f", "target": "M"},
    "induce": {"along": "f", "target": "M"},
    "induction-adjunction": {"along": "f"},
    "kleisli": {"coalgebra": "G", "dim": 1},
    "bridge": {"coalgebra": "G"},
    "probe": {"comodule": "TV", "left_comodule": "LG", "space": "V"},
    "demo-noncocontinuous": {"c_size": 2},
    "equivalence": {"max_carrier": 2},
    "universal-property": {"which": "equalizer",
                           "data": {"f": "f", "g": "f"}},
}


def _malformed_cases():
    """(case id, command, argument named in the message, args)."""
    for command, entry in cli.COMMANDS.items():
        valid = VALID_ARGS[command]
        yield f"{command}-unknown", command, "fiber_bond", {
            **valid, "fiber_bond": 2}
        for name, arg in entry.args.items():
            if arg.default is cli.REQUIRED:
                yield f"{command}-{name}-missing", command, name, {
                    k: v for k, v in valid.items() if k != name}
            if arg.kinds:
                wrong = next(d["name"] for d in MALFORMED_DECLS
                             if d["kind"] not in arg.kinds)
                yield f"{command}-{name}-wrong-kind", command, name, {
                    **valid, name: wrong}
            if arg.type is int:
                yield f"{command}-{name}-string", command, name, {
                    **valid, name: "2"}
                yield f"{command}-{name}-bool", command, name, {
                    **valid, name: True}
                yield f"{command}-{name}-below-{arg.least}", command, name, {
                    **valid, name: arg.least - 1}
    # rules that depend on another argument, checked by the runner
    yield "unique-comonoid-neither", "unique-comonoid", "size", {}
    yield "adjoint-lone-contramodule", "adjoint", "comodule", {
        "contramodule": "FV"}
    yield "adjoint-lone-comodule", "adjoint", "contramodule", {
        "comodule": "TV"}
    yield "bridge-lone-comodule", "bridge", "contramodule", {
        "coalgebra": "G", "comodule": "TV"}
    yield "bridge-lone-contramodule", "bridge", "comodule", {
        "coalgebra": "G", "contramodule": "FV"}
    for command in ("restrict", "induce"):
        yield f"{command}-linear-without-coalgebras", command, \
            "dom_coalgebra", {"along": "gin", "target": "TV"}
        yield f"{command}-finmap-of-linear-target", command, "along", {
            "along": "f", "target": "TV"}
        yield f"{command}-linear-map-of-set-target", command, "target", {
            "along": "gin", "target": "M", "dom_coalgebra": "G1",
            "cod_coalgebra": "G"}
    yield "hom-set-comodule-to-contramodule", "hom", "target", {
        "source": "M", "target": "t"}
    yield "hom-comodule-to-contramodule", "hom", "source", {
        "source": "TV", "target": "FV"}
    yield "cotensor-right-right", "cotensor", "right", {
        "left": "TV", "right": "TV"}
    yield "cotensor-left-left", "cotensor", "left", {
        "left": "LG", "right": "LG"}
    yield "probe-right-right", "probe", "left_comodule", {
        "comodule": "TV", "left_comodule": "TV", "space": "V"}
    # universal-property: 'which' and the roles of 'data'
    yield "universal-property-which-unknown", "universal-property", \
        "which", {"which": "limit", "data": {"f": "f", "g": "f"}}
    for which, data in (("equalizer", {}),
                        ("pullback", {"f": "f"}),
                        ("product", {"a": "C", "c": "C"}),
                        ("coproduct", {"a": "C", "b": "f"}),
                        ("coequalizer", {"f": "f", "g": ["f"]})):
        yield f"universal-property-{which}-data", "universal-property", \
            "data", {"which": which, "data": data}
    # the keys of adjoint's random object
    for key, value in (("count", "x"), ("count", True), ("count", 0),
                       ("max_dim", -1), ("max_dim", 2.0), ("max_dims", 2),
                       ("field", "F4"), ("field", 2)):
        yield f"adjoint-random-{key}-{value!r}", "adjoint", "random", {
            "random": {key: value}}


MALFORMED = {case[0]: case[1:] for case in _malformed_cases()}


def test_every_command_has_valid_arguments_to_break():
    assert set(VALID_ARGS) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_valid_arguments_pass(command):
    env = serialize.parse_bundle({"declarations": MALFORMED_DECLS})
    ctx = {"budget": 10**6, "oracle": True, "seed": 1, "timing": False}
    entry = cli.run_job(env, {"command": command,
                              "args": VALID_ARGS[command]}, ctx)
    assert entry["status"] == "pass", entry["witnesses"]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_job_is_a_parse_error_entry(tmp_path, case):
    command, name, args = MALFORMED[case]
    manifest = {
        "declarations": MALFORMED_DECLS,
        "jobs": [
            {"id": "ok", "command": "r", "args": {"target": "M"}},
            {"id": "bad", "command": command, "args": args},
        ],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 2
    assert statuses(report) == {"ok": "pass", "bad": "error"}
    witness = report["jobs"][0]["witnesses"][0]
    assert witness["error"] == "ParseError"
    assert witness["message"].startswith(f"{command}: ")
    assert repr(name) in witness["message"]


@pytest.mark.parametrize("command, name, value, message", [
    # each of these once ran: the first four passed vacuously, a
    # certificate of nothing, and the last ended in a raw IndexError
    ("induction-adjunction", "fiber_bound", 0,
     "induction-adjunction: argument 'fiber_bound' must be at least 1, "
     "got 0"),
    ("induction-adjunction", "fiber_bound", -1,
     "induction-adjunction: argument 'fiber_bound' must be at least 1, "
     "got -1"),
    ("kleisli", "dim", -1, "kleisli: argument 'dim' must be at least 0, "
     "got -1"),
    ("unique-comonoid", "size", -3,
     "unique-comonoid: argument 'size' must be at least 0, got -3"),
    ("equivalence", "max_base", -1,
     "equivalence: argument 'max_base' must be at least 0, got -1"),
    ("enumerate", "base", -1,
     "enumerate: argument 'base' must be at least 0, got -1"),
    ("enumerate", "carrier", -2,
     "enumerate: argument 'carrier' must be at least 0, got -2"),
    ("demo-noncocontinuous", "c_size", -1,
     "demo-noncocontinuous: argument 'c_size' must be at least 0, got -1"),
    ("equivalence", "naturality_carrier", -1,
     "equivalence: argument 'naturality_carrier' must be at least 0, "
     "got -1"),
])
def test_size_below_its_meaning_is_a_parse_error(command, name, value,
                                                 message):
    env = serialize.parse_bundle({"declarations": MALFORMED_DECLS})
    ctx = {"budget": 10**6, "oracle": True, "seed": 1, "timing": False}
    args = dict(VALID_ARGS[command])
    if command == "unique-comonoid":
        args = {}
    args[name] = value
    entry = cli.run_job(env, {"command": command, "args": args}, ctx)
    assert entry["status"] == "error"
    assert entry["witnesses"] == [{"error": "ParseError",
                                   "message": message}]


def test_universal_property_names_the_missing_role():
    env = serialize.parse_bundle({"declarations": MALFORMED_DECLS})
    ctx = {"budget": 10**6, "oracle": True, "seed": 1, "timing": False}
    entry = cli.run_job(env, {"command": "universal-property",
                              "args": {"which": "equalizer", "data": {}}},
                        ctx)
    assert entry["status"] == "error"
    assert entry["witnesses"] == [{
        "error": "ParseError",
        "message": "universal-property: argument 'data' lacks the role 'f' "
                   "(equalizer takes f, g)"}]


@pytest.mark.parametrize("budget", ["lots", 0, -5, True])
def test_invalid_job_budget_errors_that_job_only(tmp_path, budget):
    manifest = {
        "declarations": BASE_DECLS,
        "jobs": [
            {"id": "bad", "command": "r", "args": {"target": "M"},
             "budget": budget},
            {"id": "good", "command": "r", "args": {"target": "M"}},
        ],
    }
    code, report = run_cli(tmp_path, manifest)
    assert code == 2
    assert statuses(report) == {"bad": "error", "good": "pass"}
    bad = report["jobs"][0]
    assert bad["witnesses"][0]["error"] == "CocontraError"


def test_unknown_command_exits_two(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"declarations": [], "jobs": [{"id": "j1", "command": "frobnicate"}]}
    ))
    assert cli.main(["run", str(path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


R_JOB = {"command": "r", "args": {"target": "M"}}


@pytest.mark.parametrize("subcommand, doc, message", [
    ("run", {"jobs": [1]}, "'jobs' must be a list of objects, got [1]"),
    ("run", {"jobs": {"a": 1}},
     "'jobs' must be a list of objects, got {'a': 1}"),
    ("run", {"declarations": BASE_DECLS,
             "jobs": [{**R_JOB, "id": "j", "command": ["r"]}]},
     "a job's 'command' must be a string, got ['r']"),
    ("run", {"declarations": BASE_DECLS, "jobs": [{**R_JOB, "id": ["j"]}]},
     "a job's 'id' must be a string, got ['j']"),
    # once these failed sorting the entries, after every job had run
    ("run", {"declarations": BASE_DECLS,
             "jobs": [{**R_JOB, "id": 3}, {**R_JOB, "id": "3"}]},
     "a job's 'id' must be a string, got 3"),
    ("run", {"declarations": [1]},
     "'declarations' must be a list of objects, got [1]"),
    ("run", [], "a document must be an object, got []"),
    ("r", [], "a document must be an object, got []"),
    ("r", {"declarations": [1]},
     "'declarations' must be a list of objects, got [1]"),
], ids=["jobs-of-ints", "jobs-an-object", "command-a-list", "id-a-list",
        "int-and-str-ids", "declarations-of-ints", "run-on-a-list",
        "file-a-list", "file-declarations-of-ints"])
def test_malformed_document_is_a_parse_error(tmp_path, capsys, subcommand,
                                             doc, message):
    """Each of these shapes once ended in a traceback and exit 1, the exit
    code of a failed job."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert cli.main([subcommand, str(path)]) == 2
    where = "" if subcommand == "run" else f" at {path}"
    assert capsys.readouterr().err == f"parse error{where}: {message}\n"


@pytest.mark.parametrize("env", [
    {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    {"PYTHONIOENCODING": "ascii"},
], ids=["C-locale", "ascii-stdout"])
def test_report_bytes_do_not_depend_on_the_locale(tmp_path, env):
    """Manifests are read, and reports written, as UTF-8: a label with an
    accent and the tensor labels a restriction writes (``⊗``) come out as
    the same bytes under a locale that cannot encode them."""
    import subprocess
    import sys

    doc = {"declarations": [
        {"kind": "finset", "name": "C", "elements": ["é", "2"]},
        {"kind": "group_like_coalgebra", "name": "G", "field": "F2",
         "size": 2},
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 1}},
        {"kind": "cofree_comodule", "name": "TV", "coalgebra": "G",
         "on": "V"},
        {"kind": "coalgebra_morphism", "name": "id", "dom": "G",
         "cod": "G", "blocks": {"0": [[1, 0], [0, 1]]}},
    ], "jobs": [
        {"id": "j1", "command": "unique-comonoid", "args": {"base": "C"}},
        {"id": "j2", "command": "restrict",
         "args": {"along": "id", "target": "TV", "dom_coalgebra": "G",
                  "cod_coalgebra": "G"}},
    ]}
    path = tmp_path / "manifest.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    src = str(Path(cli.__file__).parents[1])

    def run(extra, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cocontra.cli", "run", str(path), *argv],
            capture_output=True, env={"PYTHONPATH": src, **extra})
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return proc.stdout

    want = run({"PYTHONUTF8": "1"})
    assert "é".encode() in want and "⊗".encode() in want
    assert run(env) == want
    out = tmp_path / "report.json"
    run(env, "--out", str(out))
    assert out.read_bytes() == want


def budget_error(tmp_path, decls, job, argv_extra=("--oracle",)):
    code, report = run_cli(tmp_path, {"declarations": decls, "jobs": [job]},
                           argv_extra)
    assert code == 2
    entry = report["jobs"][0]
    assert entry["status"] == "error"
    assert entry["witnesses"][0]["error"] == "budget-exceeded"
    return entry["witnesses"][0]["projected"]


FIVE_OVER_THREE = [
    {"kind": "finset", "name": "C3", "elements": ["1", "2", "3"]},
    {"kind": "finset", "name": "X5", "elements": ["a", "b", "c", "d", "e"]},
    {"kind": "set_comodule", "name": "M5", "carrier": "X5", "base": "C3",
     "phi": {"a": "1", "b": "1", "c": "2", "d": "2", "e": "3"}},
]


def test_set_hom_is_charged_before_it_enumerates(tmp_path):
    job = {"id": "h", "command": "hom",
           "args": {"source": "M5", "target": "M5"}}
    # hom_over: 5^5 carrier maps
    assert budget_error(tmp_path, FIVE_OVER_THREE,
                        {**job, "budget": 1000}) == 5 ** 5
    # the oracle's function space into carrier x base: (5*3)^5
    assert budget_error(tmp_path, FIVE_OVER_THREE,
                        {**job, "budget": 10000}) == 15 ** 5


def test_contra_hom_oracle_is_charged(tmp_path):
    decls = [
        BASE_DECLS[0],
        {"kind": "contra_product", "name": "t33", "base": "C",
         "fibers": {"1": ["p", "q", "r"], "2": ["u", "v", "w"]}},
    ]
    job = {"id": "h", "command": "hom",
           "args": {"source": "t33", "target": "t33"}}
    assert budget_error(tmp_path, decls, job) == 9 ** 9


def test_unique_comonoid_size_five_exceeds_default_budget(tmp_path):
    job = {"id": "u", "command": "unique-comonoid", "args": {"size": 5}}
    assert budget_error(tmp_path, [], job, ()) == 25 ** 5


def test_enumerate_four_over_two_exceeds_default_budget(tmp_path):
    """The search visits far fewer tables than the odometer over the free
    slots, but the charge is that odometer's size: 4^(4^2 - 4)."""
    job = {"id": "e", "command": "enumerate",
           "args": {"carrier": 4, "base": 2}}
    code, report = run_cli(tmp_path, {"declarations": [], "jobs": [job]})
    assert code == 2
    (entry,) = report["jobs"]
    assert entry["witnesses"] == [{"error": "budget-exceeded",
                                   "projected": 16_777_216}]
    assert entry["result"] == ("theta-table enumeration would enumerate "
                               "16777216 items (budget 1000000)")


def test_induction_adjunction_is_charged(tmp_path):
    decls = [
        BASE_DECLS[0],
        {"kind": "finset", "name": "P", "elements": ["x"]},
        {"kind": "finmap", "name": "f", "dom": "C", "cod": "P",
         "table": {"1": "x", "2": "x"}},
    ]
    job = {"id": "ia", "command": "induction-adjunction",
           "args": {"along": "f", "fiber_bound": 2}}
    # the largest slotwise hom family has 2^2 * 2^2 = 16 members
    assert budget_error(tmp_path, decls, {**job, "budget": 15}, ()) == 16
    code, report = run_cli(tmp_path, {"declarations": decls,
                                      "jobs": [{**job, "budget": 16}]})
    assert code == 0


def test_job_budget_reaches_the_certificates(tmp_path):
    # the extensional tables, coequaliser ambients and contramodule-map
    # checks of the equivalence certificate: the first above 100 is the
    # quotient-side triangle's ambient on the 3 x 3 product, 9^2 * 2
    job = {"id": "e", "command": "equivalence", "args": {}, "budget": 100}
    code, report = run_cli(tmp_path, {"declarations": [], "jobs": [job]})
    assert code == 2
    entry = report["jobs"][0]
    assert entry["witnesses"] == [{"error": "budget-exceeded",
                                   "projected": 162}]
    assert entry["result"] == (
        "coequaliser ambient would enumerate 162 items (budget 100)")
    # lr on fibers of sizes 2 and 2: the 4 sections' extensional table
    decls = [
        BASE_DECLS[0],
        {"kind": "finset", "name": "X4", "elements": ["a", "b", "c", "d"]},
        {"kind": "set_comodule", "name": "M4", "carrier": "X4", "base": "C",
         "phi": {"a": "1", "b": "1", "c": "2", "d": "2"}},
    ]
    job = {"id": "lr", "command": "lr", "args": {"target": "M4"},
           "budget": 2}
    assert budget_error(tmp_path, decls, job, ()) == 16


def test_over_budget_lr_is_refused_before_its_work():
    # three 10-point fibers over three points: 1000 sections, whose
    # extensional table is charged from the fiber sizes before the
    # sections or either quotient are built
    points = [f"p{i:02}" for i in range(30)]
    doc = {"declarations": [
        {"kind": "finset", "name": "C3", "elements": ["1", "2", "3"]},
        {"kind": "finset", "name": "X30", "elements": points},
        {"kind": "set_comodule", "name": "M", "carrier": "X30", "base": "C3",
         "phi": {p: str(1 + i // 10) for i, p in enumerate(points)}},
    ]}
    env = serialize.parse_bundle(doc)
    job = {"id": "lr", "command": "lr", "args": {"target": "M"},
           "budget": 1000}
    ctx = {"budget": 10 ** 6, "oracle": False, "seed": 1, "timing": False}
    start = time.process_time()
    entry = cli.run_job(env, job, ctx)
    elapsed = time.process_time() - start
    assert serialize.canonical_bytes(entry) == serialize.canonical_bytes({
        "status": "error",
        "witnesses": [{"error": "budget-exceeded", "projected": 10 ** 9}],
        "counts": {},
        "result": "extensional table would enumerate 1000000000 items "
                  "(budget 1000)",
        "id": "lr", "command": "lr", "timing": None,
    })
    assert elapsed < 0.05, elapsed


def test_restricting_a_theta_table_is_charged(tmp_path):
    points = ["a", "b", "c", "d"]
    decls = [
        {"kind": "finset", "name": "C1", "elements": ["1"]},
        {"kind": "finset", "name": "X4", "elements": points},
        {"kind": "finset", "name": "P3", "elements": ["x", "y", "z"]},
        {"kind": "contra_table", "name": "T", "carrier": "X4", "base": "C1",
         "theta": {finset.encode_table(["1"], {"1": x}): x
                   for x in points}},
        {"kind": "finmap", "name": "f", "dom": "C1", "cod": "P3",
         "table": {"1": "x"}},
    ]
    job = {"id": "r", "command": "restrict",
           "args": {"along": "f", "target": "T"}}
    # the restricted theta has one entry per map P3 -> X4
    assert budget_error(tmp_path, decls, {**job, "budget": 63}, ()) == 64
    code, _ = run_cli(tmp_path, {"declarations": decls,
                                 "jobs": [{**job, "budget": 64}]})
    assert code == 0


def test_noncocontinuity_demo_is_charged(tmp_path):
    out = tmp_path / "report.json"
    for argv, projected in ((["--c-size", "6", "--budget", "10"], 64),
                            (["--c-size", "30"], 2 ** 30)):
        assert cli.main(["demo-noncocontinuous", *argv,
                         "--out", str(out)]) == 2
        entry = json.loads(out.read_text())["jobs"][0]
        assert entry["witnesses"] == [{"error": "budget-exceeded",
                                       "projected": projected}]


def test_partition_family_oracle_is_charged(tmp_path):
    # Bell(10) = 115975 partitions of the carrier, one per base point; the
    # tables over a one-point base charge only 1
    out = tmp_path / "report.json"
    argv = ["enumerate", "--carrier", "10", "--base", "1", "--oracle",
            "--budget", "10", "--out", str(out)]
    assert cli.main(argv) == 2
    entry = json.loads(out.read_text())["jobs"][0]
    assert entry["witnesses"] == [{"error": "budget-exceeded",
                                   "projected": 115975}]


@pytest.mark.parametrize("carrier, valid", [(0, 0), (1, 1), (3, 0)])
def test_enumerate_over_the_empty_base(tmp_path, carrier, valid):
    """Over the empty base there is one function, which contraunitality
    sends to every point: only a one-point carrier has a theta table, and
    the partition-family oracle, whose empty family of classes meets in
    the whole carrier, agrees."""
    out = tmp_path / "report.json"
    argv = ["enumerate", "--carrier", str(carrier), "--base", "0",
            "--oracle", "--out", str(out)]
    assert cli.main(argv) == 0
    entry = json.loads(out.read_text())["jobs"][0]
    assert entry["status"] == "pass"
    assert entry["result"] == {"valid": valid, "product_structures": valid}


@pytest.mark.parametrize("base", [1, 2, 3])
def test_enumerate_on_the_empty_carrier(tmp_path, base):
    """Over a non-empty base there is no function into the empty carrier,
    so its theta table is empty and a contramodule: the empty one, which
    the partition-family oracle counts too.  The enumeration charges
    nothing for it and the oracle Bell(0)^|C| = 1."""
    out = tmp_path / "report.json"
    argv = ["enumerate", "--carrier", "0", "--base", str(base),
            "--oracle", "--budget", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    entry = json.loads(out.read_text())["jobs"][0]
    assert entry["status"] == "pass"
    assert entry["result"] == {"valid": 1, "product_structures": 1}


def test_job_budget_lives_only_while_a_job_runs(monkeypatch):
    """Every charge a job makes is checked against the job's own budget,
    and the default comes back when the job ends, whether it passes,
    raises or exceeds its budget."""
    def outside_any_job():
        charge(DEFAULT_BUDGET, "outside")
        with pytest.raises(BudgetExceeded):
            charge(DEFAULT_BUDGET + 1, "outside")

    def run(env, args, jctx):
        charge(7, "inside")
        if raised is not None:
            raise raised
        return cli._pass()

    outside_any_job()
    monkeypatch.setitem(cli.COMMANDS, "r",
                        cli.COMMANDS["r"]._replace(run=run))
    env = serialize.parse_bundle({"declarations": BASE_DECLS})
    ctx = {"budget": 10 ** 6, "oracle": False, "seed": 1, "timing": False}
    job = {"command": "r", "args": {"target": "M"}, "budget": 7}
    for raised, witnesses in (
            (None, []),
            (RuntimeError("boom"), [{"error": "RuntimeError",
                                     "message": "boom"}])):
        assert cli.run_job(env, job, ctx)["witnesses"] == witnesses
        outside_any_job()
    entry = cli.run_job(env, {**job, "budget": 6}, ctx)
    assert entry["witnesses"] == [{"error": "budget-exceeded",
                                   "projected": 7}]
    outside_any_job()


def test_no_function_takes_a_budget_parameter():
    """The budget is the job's (errors.job), never a parameter: a
    parameter with a default lets a caller that leaves it out replace the
    job's budget by the default."""
    import importlib
    import inspect
    import pkgutil

    import cocontra

    checked, takes = 0, []
    for info in pkgutil.walk_packages(cocontra.__path__, "cocontra."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                members += [(f"{name}.{attr}", value)
                            for attr, value in vars(obj).items()]
            for qualname, fn in members:
                fn = getattr(fn, "__func__", fn)
                if (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    checked += 1
                    if "budget" in inspect.signature(fn).parameters:
                        takes.append(f"{mod.__name__}.{qualname}")
    # the walk reaches the whole package (about 500 functions and methods)
    assert checked > 300
    assert takes == []


def test_contra_table_of_the_wrong_size_is_refused_before_its_space(
        monkeypatch):
    def unbuilt(a, b):
        raise AssertionError("the function space was built")

    monkeypatch.setattr(finset, "function_space", unbuilt)
    points = [f"p{i}" for i in range(20)]
    for theta in ({}, {"one": "p0"}):
        doc = {"declarations": [
            {"kind": "finset", "name": "X", "elements": points},
            {"kind": "contra_table", "name": "T", "carrier": "X",
             "base": "X", "theta": theta},
        ]}
        with pytest.raises(ParseError) as exc:
            serialize.parse_bundle(doc)
        assert str(exc.value) == (
            "contra_table 'T' rejected: table is not total on the domain")


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_cli"


@pytest.mark.parametrize("argv", [
    ["run", str(EXAMPLES / "manifest.json"), "--oracle"],
    ["r", str(EXAMPLES / "comodule.json")],
    ["decompose", str(EXAMPLES / "contramodule.json"),
     "--basepoint", "{1:p,2:r}"],
])
def test_readme_examples_pass(tmp_path, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0


# --- the command-line surface ----------------------------------------------
#
# Every command line of the README and of ``examples_cli/``, over small
# declaration files: a bundle per subject and a ``{"main": name}`` pointer
# for each further object, so no name is declared twice.  The exit codes
# and report digests were recorded before the subcommands were built from
# the command table; each default invocation sits next to one with the flag
# set, so a changed default changes a digest.

SURFACE_SET = [
    {"kind": "finset", "name": "C", "elements": ["1", "2"]},
    {"kind": "finset", "name": "X", "elements": ["a", "b", "c"]},
    {"kind": "finset", "name": "Y", "elements": ["d", "e"]},
    {"kind": "set_comodule", "name": "M", "carrier": "X", "base": "C",
     "phi": {"a": "1", "b": "2", "c": "2"}},
    {"kind": "set_comodule", "name": "N", "carrier": "Y", "base": "C",
     "phi": {"d": "1", "e": "2"}},
    {"kind": "contra_product", "name": "s", "base": "C",
     "fibers": {"1": ["u"], "2": ["v", "w"]}},
    {"kind": "contra_product", "name": "t", "base": "C",
     "fibers": {"1": ["p", "q"], "2": ["r", "s"]}},
    {"kind": "finmap", "name": "f", "dom": "C", "cod": "C",
     "table": {"1": "2", "2": "2"}},
]

SURFACE_LIN = [
    {"kind": "group_like_coalgebra", "name": "G", "field": "F2", "size": 2},
    {"kind": "graded_space", "name": "V", "field": "F2", "dims": {"0": 2},
     "prefix": "v"},
    {"kind": "cofree_comodule", "name": "TV", "coalgebra": "G", "on": "V"},
    {"kind": "free_contramodule", "name": "FV", "coalgebra": "G", "on": "V"},
    {"kind": "graded_space", "name": "GS", "field": "F2", "dims": {"0": 2},
     "labels": {"0": ["g0", "g1"]}},
    {"kind": "vcomodule", "name": "LG", "coalgebra": "G", "space": "GS",
     "side": "left",
     "rho_blocks": {"0": [[1, 0], [0, 0], [0, 0], [0, 1]]}},
]

SURFACE_POLY = [
    {"kind": "poly_coalgebra", "name": "P", "truncation": 2, "z_degree": 1,
     "field": "Q"},
]

SURFACE_MANIFEST = {
    "declarations": BASE_DECLS,
    "jobs": [
        {"id": "r", "command": "r", "args": {"target": "M"}},
        {"id": "rand", "command": "adjoint",
         "args": {"random": {"count": 2, "max_dim": 2, "field": "F2"}}},
        {"id": "enum", "command": "enumerate",
         "args": {"carrier": 2, "base": 2}},
    ],
}


def _surface_files(tmp_path):
    files = {"manifest": SURFACE_MANIFEST}
    for prefix, decls, mains in (("set", SURFACE_SET, "MNstf"),
                                 ("lin", SURFACE_LIN, ("G", "TV", "FV")),
                                 ("poly", SURFACE_POLY, ("P",))):
        for main in mains:
            files[f"{prefix}-{main}"] = {"declarations": decls, "main": main}
    for name in ("M", "N", "s", "t", "TV", "FV", "LG", "V"):
        files[name] = {"main": name}
    paths = {}
    for key, doc in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    paths["examples"] = EXAMPLES
    return paths


CLI_SURFACE = {
    # id: (argv with {file} placeholders, exit code, report sha256)
    "run": ("run {manifest} --oracle --seed 5 --budget 100000",
        0, "d10a610216450a8d848725de6a731a1076f55da7414ca2704a0db34cd9cba983"),
    "unique-comonoid": ("unique-comonoid --size 3",
        0, "ba0247eed5a57215415c280e015d58ad2660a98222532cfe37470fe2525683d4"),
    "enumerate": ("enumerate --carrier 3 --base 2 --oracle",
        0, "c00b09931c170ec637726416e58916fe60e38b0cd418af165e7852e659d984aa"),
    "enumerate-budget": ("enumerate --carrier 3 --base 2 --budget 10",
        2, "305b8fea61337c42e8abe5abc6a014bd2425f2e34b0c4cbea9d7cee5dd1558be"),
    "enumerate-budget-huge": ("enumerate --carrier 3 --base 9 --budget 10",
        2, "ae673cb9694b88d9a255a4d6b2add728f2b2154e54a95a2247ef14fd466a4000"),
    "demo": ("demo-noncocontinuous --c-size 3",
        0, "5e7d6d1beda6232d4200e111c904e83d9f876ff47fb4b506c241be6cbd544f65"),
    "demo-default": ("demo-noncocontinuous",
        0, "98c19f3b78f0adf029ae1a4cac64459fa98a716fe2ff276d3d5cfd146cbadf75"),
    "r-set": ("r {set-M}",
        0, "61335dc3cad81cbc4f1a567d9055100088ea41eb14176c9157a2e6dab868f10e"),
    "r-lin": ("r {lin-TV}",
        0, "4bd30716fc6913269bbcab94290c00967b375e393b70ef0e5a9fb64fd6b9e611"),
    "l-set": ("l {set-t} --oracle",
        0, "f5bdb5115f5a2ead66641960d3a0c6e5e814dc29889f01dffb405d5379544278"),
    "l-lin": ("l {lin-FV}",
        0, "316dc2c31d9dd0517745a2de0d93d89eec30fc6bcdd590f7672b7c7d9f831c91"),
    "lr-set": ("lr {set-M}",
        0, "1bc0d02a6e89e49618fc047a750b4782179742f8bbea3e66e874aabfa300416d"),
    "lr-lin": ("lr {lin-TV}",
        0, "a9af29aedaebb5be04dc1e99133c72c14d4de0f5679548dc884f1e681be1e76f"),
    "adjoint": ("adjoint {lin-FV} {TV}",
        0, "c0e5a84247264021fb6e9045ce5ed7b5c900638929faed5f48f34e47111ade81"),
    "decompose": ("decompose {set-t} --basepoint {{1:p,2:r}}",
        0, "0878da2ebd58be825602c6a77379428104dcadb284af62c9672d4fcb33c8b70e"),
    "hom-comodule": ("hom {set-M} {N} --oracle",
        0, "e75e52baa1871eeae73354cd69dde2826432e6d573a2e90032650b54b583c48e"),
    "hom-contra": ("hom {set-s} {t} --oracle",
        0, "442c65758ed07c6a2d2ef86c6aae1c7456b1fe33721c1eeef3ef2510e4e014b5"),
    "hom-lin": ("hom {lin-TV} {TV} --oracle",
        0, "93b0b5f670b500605c757ea12427d8bc73a5afc903811476bcff1edaded2182f"),
    "cotensor": ("cotensor {lin-TV} {LG}",
        0, "d18b910f61284591c9349aff63e749add7444ec40d0be11db2909041a48c7fc7"),
    "cohom": ("cohom {lin-TV} {FV}",
        0, "2effabd0bee83ea4c8a2bd5793abf53f458f2f13012f3ab53c4326762e3cb187"),
    "restrict-comodule": ("restrict {set-f} {M}",
        0, "d128a541ee4c2d2aea8b89f7927f07fd4f38667b4f0b0d9775168ef4e538249e"),
    "restrict-contra": ("restrict {set-f} {t}",
        0, "6671fb776dc60a1a25f5072f929b4c2321914168dec05e1289260d0eb3109556"),
    "induce-comodule": ("induce {set-f} {M}",
        0, "a580816e7123b42702749618cb3d4ea357b1b0bad92aa6255e2879e73b7b12a5"),
    "induce-contra": ("induce {set-f} {t}",
        0, "72c887ff9c2928fd662ee6f334381a841df91e7f00bda9eabb36b8ca6c1726a1"),
    "induction-adjunction": ("induction-adjunction {set-f} --fiber-bound 1",
        0, "134cb43595e23f1c2e38fbb9836bd8df0fdd87d022bcb14650339e997c01d78f"),
    "induction-adjunction-default": ("induction-adjunction {set-f}",
        0, "d6420e63d9f71787e31aef058d8971137b6fb710b5e018f79d2778ac3a7e3ade"),
    "kleisli": ("kleisli {lin-G} --dim 2",
        0, "714e4876bf283fb352fee714e82d4a3042f65e10a22852d269f69d436df40f9f"),
    "kleisli-default": ("kleisli {lin-G}",
        0, "fc437bd4d792e7d2426a056208240b16fac5e3d8ba4575485ee373356d195760"),
    "kleisli-poly": ("kleisli {poly-P}",
        0, "222f9076e4db9a5fcf79075566c495dec91dd8163b21927a7f58f5c6afa0c5f4"),
    "bridge": ("bridge {lin-G}",
        0, "0ea66aa0cc9811b4b13055e01eca44bf391e8ca36a2ec0811a22e927be1cefae"),
    "bridge-objects": ("bridge {lin-G} --comodule TV --contramodule FV",
        0, "2ef9f77bca24b2bf7ab1d35cf58af898e56b88dcae016686a450a7685491fc3f"),
    "bridge-poly": ("bridge {poly-P}",
        0, "ce325e6894647913625f8de94cb7c28a8c5be4a8263ee79f47e794efc5efc0be"),
    "probe": ("probe {lin-TV} {LG} {V}",
        0, "a86b719f8dae67766b4f459c25c1855ece858b0e3d927986c6ac9943f87ae7e5"),
    "check-set": ("check {set-t}",
        0, "61dc92db8d6296dd10f0f831d59a7c0dd48e685be825ce6a1554d43cc6b2c81f"),
    "check-lin": ("check {lin-G}",
        0, "0ac5c22c1e6413a68a3f6713ba24d434479d0fd56d49f5d1d340d8c1559d7269"),
    "check-poly": ("check {poly-P}",
        0, "0ac5c22c1e6413a68a3f6713ba24d434479d0fd56d49f5d1d340d8c1559d7269"),
    "equivalence": ("equivalence --max-carrier 3 --max-base 2 --max-fiber 2",
        0, "4424bc212a311596519b44e70ebdbcb555e6dfc23b60ac15a80aa82b8de682e8"),
    "equivalence-default": ("equivalence",
        0, "82086cf756e229fdab39eb792e9c244e76cafe763012b1557a0e4110506fb0e2"),
    "example-run": ("run {examples}/manifest.json --oracle",
        0, "3a6c28236adbc3e6f443b5095d5a42aa1699c58b07b9623120178c0374f4fc67"),
    "example-r": ("r {examples}/comodule.json",
        0, "61335dc3cad81cbc4f1a567d9055100088ea41eb14176c9157a2e6dab868f10e"),
    "example-decompose": ("decompose {examples}/contramodule.json "
                          "--basepoint {{1:p,2:r}}",
        0, "0878da2ebd58be825602c6a77379428104dcadb284af62c9672d4fcb33c8b70e"),
}


def _check_surface_case(tmp_path, case):
    template, code, digest = CLI_SURFACE[case]
    paths = _surface_files(tmp_path)
    argv = template.format(**paths).split()
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(CLI_SURFACE))
def test_cli_surface_matches_recorded_reports(tmp_path, case):
    _check_surface_case(tmp_path, case)


@pytest.mark.parametrize("case, builds", [
    ("bridge", 0), ("bridge-objects", 1), ("bridge-poly", 0)])
def test_bridge_job_builds_the_dual_algebra_once(monkeypatch, tmp_path,
                                                 case, builds):
    """The job reports the algebra's dimensions from dual(C); only the
    certificate, run when a comodule is given, builds the algebra."""
    from cocontra.coalg import bridge

    built = []
    build = bridge.dual_algebra

    def counted(c):
        built.append(c)
        return build(c)

    monkeypatch.setattr(bridge, "dual_algebra", counted)
    monkeypatch.setattr(cli.coalg, "dual_algebra", counted)
    _check_surface_case(tmp_path, case)
    assert len(built) == builds


def test_adjoint_job_builds_each_space_once(monkeypatch, tmp_path):
    """An F2 adjoint over a 2-dimensional coalgebra, as in the lin-f2
    workload: the job builds each tensor and hom space once per
    structure, and ``tensor_map`` and ``hom_map`` write their blocks
    without ``from_images``.  The counts cover the whole command,
    declaration parsing included."""
    from collections import Counter

    from cocontra.exactlin import graded

    counts = Counter()
    init = graded.GradedVect.__init__
    from_images = graded.LinMap.from_images.__func__

    def counted_init(self, *args, **kwargs):
        counts["spaces"] += 1
        init(self, *args, **kwargs)

    def counted_from_images(cls, *args):
        counts["from_images"] += 1
        return from_images(cls, *args)

    monkeypatch.setattr(graded.GradedVect, "__init__", counted_init)
    monkeypatch.setattr(graded.LinMap, "from_images",
                        classmethod(counted_from_images))
    _check_surface_case(tmp_path, "adjoint")
    # the job builds 25 spaces, 17 of them tensor and hom spaces, one per
    # structure (the coalgebra check, read off Delta's entries, builds
    # none); parsing the declarations, outside any job, builds 25; the
    # 11 more from_images are the maps built straight off the structure
    # maps' entries (L's and R's structure maps and the hom objects' pairs)
    assert counts == {"spaces": 50, "from_images": 18}


def test_space_table_lives_only_while_a_job_runs(monkeypatch):
    """Inside a job, ``tensor`` and ``hom_space`` return the space they
    built for the same arguments; the table goes with the job whether it
    passes, raises or exceeds its budget, and outside a job the two
    functions keep nothing."""
    from cocontra import errors
    from cocontra.errors import BudgetExceeded
    from cocontra.exactlin import GF, GradedVect, hom_space, tensor

    v = GradedVect(GF(2), {0: 1, 1: 2})
    assert tensor(v, v) is not tensor(v, v)
    assert hom_space(v, v) is not hom_space(v, v)
    assert errors._job is None

    adjoint = cli.COMMANDS["adjoint"]
    sizes = []

    def run(env, args, jctx):
        assert tensor(v, v) is tensor(v, v)
        assert hom_space(v, v) is hom_space(v, v)
        assert tensor(v, v) is not hom_space(v, v)
        entry = adjoint.run(env, args, jctx)
        sizes.append(len(errors._job.tables))
        if raised is not None:
            raise raised
        return entry

    monkeypatch.setitem(cli.COMMANDS, "adjoint", adjoint._replace(run=run))
    env = serialize.parse_bundle({"declarations": BASE_DECLS})
    ctx = {"budget": 10 ** 6, "oracle": False, "seed": 1, "timing": False}
    job = {"command": "adjoint",
           "args": {"contramodule": "FV", "comodule": "TV"}}
    for raised, status, error in (
            (None, "pass", None),
            (RuntimeError("boom"), "error", "RuntimeError"),
            (BudgetExceeded("over", projected=7), "error",
             "budget-exceeded")):
        entry = cli.run_job(env, job, ctx)
        assert entry["status"] == status
        if error is not None:
            assert entry["witnesses"][0]["error"] == error
        assert sizes[-1] > 2
        assert errors._job is None
    assert len(sizes) == 3


def test_equal_factors_give_one_space_per_job():
    """Within a job, ``tensor`` and ``hom_space`` of equal but distinct
    factors return one object, and a pair space built before the job
    serves for its structure; outside a job every call builds a fresh
    space, and the job leaves nothing behind."""
    from cocontra import errors
    from cocontra.exactlin import (GF, GradedVect, hom_space, tensor,
                                   unit_space)

    def space():
        return GradedVect(GF(2), {0: 1, 1: 2}, prefix="v")

    v, w = space(), space()
    assert v == w and v is not w
    before = tensor(v, v)
    assert tensor(v, v) is not tensor(w, w)
    assert hom_space(v, v) is not hom_space(w, w)
    with errors.job(10):
        assert tensor(v, v) is tensor(w, w) is tensor(v, w)
        assert hom_space(v, w) is hom_space(w, v)
        assert hom_space(v, v) is not tensor(v, v)
        assert tensor(tensor(w, w), v) is tensor(before, w)
        assert unit_space(GF(2)) is unit_space(GF(2))
        assert tensor(v, unit_space(GF(2))) is tensor(
            w, GradedVect(GF(2), {0: 1}, {0: ("1",)}))
        # a different field or other labels make another structure
        v3 = GradedVect(GF(3), {0: 1, 1: 2}, prefix="v")
        assert tensor(v3, v3) is not tensor(v, v)
        assert tensor(v, v) is not tensor(
            GradedVect(GF(2), {0: 1, 1: 2}, prefix="u"), v)
        with errors.job(10):
            inner = tensor(v, w)
        assert inner is not tensor(v, w)
    assert errors._job is None
    assert tensor(v, v) is not tensor(v, v)


def test_hom_oracle_job_releases_its_tables(monkeypatch):
    """A ``hom --oracle`` job of a 4-point comodule into a 5-point one over
    a 2-point base builds its decode tables in the job context; traced
    memory after the job is back near its level before it, whether the
    job passes, raises or exceeds its budget."""
    import tracemalloc

    from cocontra import errors

    hom = cli.COMMANDS["hom"]
    held = []

    def run(env, args, jctx):
        try:
            entry = hom.run(env, args, jctx)
        finally:
            held.append((tracemalloc.get_traced_memory()[0],
                         len(errors._job.tables)))
        if raised is not None:
            raise raised
        return entry

    monkeypatch.setitem(cli.COMMANDS, "hom", hom._replace(run=run))
    env = serialize.parse_bundle({"declarations": [
        {"kind": "finset", "name": "C", "elements": ["1", "2"]},
        {"kind": "finset", "name": "X", "elements": list("abcd")},
        {"kind": "finset", "name": "Y", "elements": list("pqrst")},
        {"kind": "set_comodule", "name": "M", "carrier": "X", "base": "C",
         "phi": {"a": "1", "b": "1", "c": "2", "d": "2"}},
        {"kind": "set_comodule", "name": "N", "carrier": "Y", "base": "C",
         "phi": {"p": "1", "q": "1", "r": "2", "s": "2", "t": "2"}},
    ]})
    ctx = {"budget": 10 ** 6, "oracle": True, "seed": 1, "timing": False}
    job = {"command": "hom", "args": {"source": "M", "target": "N"}}
    tracemalloc.start()
    try:
        # hom_over charges 5^4 = 625 and the generic oracle 10^4 = 10,000
        for budget, raised, error in (
                (None, None, None),
                (None, RuntimeError("boom"), "RuntimeError"),
                (5_000, None, "budget-exceeded")):
            before = tracemalloc.get_traced_memory()[0]
            entry = cli.run_job(
                env, {**job, "budget": budget} if budget else job, ctx)
            after = tracemalloc.get_traced_memory()[0]
            assert (entry["witnesses"][0]["error"] if error else
                    entry["status"]) == (error or "pass")
            during, tables = held[-1]
            # the job holds its tables (about 240 kB) until it ends
            assert tables > 0 and during - before > 150_000
            assert after - before < 50_000
    finally:
        tracemalloc.stop()
    assert errors._job is None


@pytest.mark.parametrize("argv", [
    ["enumerate", "--base", "2"],
    ["unique-comonoid"],
    ["decompose", str(EXAMPLES / "contramodule.json")],
])
def test_missing_required_flag_exits_through_argparse(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


# --- canonical scalars ---------------------------------------------------------
#
# A coefficient is always in its field's canonical form: a rational is an
# int when integral and a Fraction otherwise, an F_p element an int in
# range(p), and a stored block entry is never zero.  Nothing inside
# exactlin normalises, so these tests are what checks it.

def _golden_manifests():
    return {
        "examples": json.loads((EXAMPLES / "manifest.json").read_text()),
        "set-side": _set_side_manifest(),
        "linear-side": _linear_side_manifest(),
        "surface": SURFACE_MANIFEST,
    }


def test_jobs_leave_no_state_in_the_package():
    """A job's tables live in its job context and go with it: after the
    set-side and linear-side golden manifests, every module-level dict,
    list and set of the package has its size from before, and nothing in
    the package keeps a process-lifetime cache (has ``cache_info``)."""
    import importlib
    import inspect
    import pkgutil

    import cocontra
    from cocontra import errors

    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(cocontra.__path__, "cocontra.")]

    def sizes():
        return {f"{mod.__name__}.{name}": len(value)
                for mod in modules for name, value in vars(mod).items()
                if isinstance(value, (dict, list, set))
                and not name.startswith("__")}

    before = sizes()
    assert before
    for name in ("set-side", "linear-side"):
        cli.run_manifest(_golden_manifests()[name], GOLDEN_CTX)
    assert sizes() == before
    assert errors._job is None
    cached = []
    for mod in modules:
        for name, obj in vars(mod).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                members += [(f"{name}.{attr}", value)
                            for attr, value in vars(obj).items()]
            cached += [f"{mod.__name__}.{qualname}"
                       for qualname, value in members
                       if hasattr(getattr(value, "__func__", value),
                                  "cache_info")]
    assert cached == []


@pytest.mark.parametrize("name", ["examples", "set-side", "linear-side",
                                  "surface"])
def test_golden_reports_print_no_fraction_repr(name):
    """``serialize_result`` falls back to ``repr`` for a type it does not
    know, so a stray Fraction in a payload would print as
    ``Fraction(1, 2)``."""
    report = cli.run_manifest(_golden_manifests()[name], GOLDEN_CTX)
    assert b"Fraction(" not in serialize.canonical_bytes(report)


def _noncanonical_entries(f):
    fld = f.dom.field
    p = getattr(fld, "p", None)
    for k, blk in f.blocks.items():
        for i, row in enumerate(blk.srows):
            for j, x in row.items():
                if p is None:
                    ok = type(x) is int and x != 0 or (
                        type(x) is Fraction and x.denominator != 1)
                else:
                    ok = type(x) is int and 0 < x < p
                if not ok:
                    yield fld.name, k, i, j, x


@pytest.mark.parametrize("name", ["examples", "linear-side", "surface"])
def test_structure_map_entries_are_canonical(monkeypatch, name):
    """Every block entry of every map the golden linear jobs build, over
    Q, F2 and F3."""
    from cocontra.exactlin import LinMap

    fields, bad = set(), []
    build = LinMap.__init__

    def checked(self, dom, cod, degree, blocks):
        build(self, dom, cod, degree, blocks)
        fields.add(dom.field.name)
        bad.extend(_noncanonical_entries(self))

    monkeypatch.setattr(LinMap, "__init__", checked)
    report = cli.run_manifest(_golden_manifests()[name], GOLDEN_CTX)
    assert [j["id"] for j in report["jobs"] if j["status"] != "pass"] == []
    assert bad[:5] == []
    assert "F2" in fields
    if name == "linear-side":
        assert fields == {"Q", "F2", "F3"}
