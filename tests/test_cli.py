import json
import os
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest

import bouquetdet
from bouquetdet.chains import min_labeling
from bouquetdet.cli import KINDS, build_parser, main
from conftest import FIXTURES, load_fixture
from test_golden import GOLDEN_DIGESTS, cases as golden_cases, digest

PEX = str(FIXTURES / "poset_bouquet_example.json")
PENTAGON = str(FIXTURES / "poset_pentagon.json")
ONE_ATOM = str(FIXTURES / "poset_one_atom.json")
# M(K5): one family block, of dimension 4! = 24.  Kept out of FIXTURES'
# top level, whose files must run under every command and are pinned in
# golden_outputs.json.
K5 = FIXTURES / "oversized" / "matroid_k5.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_bouquet_example(self, capsys):
        code, out = run(capsys, "check", PEX)
        payload = json.loads(out)
        assert code == 0
        assert payload["bouquet"] is True

    def test_pentagon_fails(self, capsys):
        code, out = run(capsys, "check", PENTAGON)
        payload = json.loads(out)
        assert code == 2
        assert payload["bouquet"] is payload["geometric"] is payload["valid"] is False
        assert payload["bouquet_failure"] == {"reason": "not-atomic", "witness": ["c"]}
        # the text format prints the witness as JSON, as `verify` does
        code, out = run(capsys, "check", PENTAGON, "--format", "text")
        assert code == 2
        assert out == ("bouquet: False\ngeometric: False\n"
                       'bouquet_failure: not-atomic ["c"]\nvalid: False\n')

    def test_empty_poset_not_geometric(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"elements": [], "covers": []}))
        code, out = run(capsys, "check", str(empty))
        payload = json.loads(out)
        assert code == 2
        assert payload["geometric"] is False
        assert payload["bouquet_failure"] == {"reason": "not-lattice", "witness": []}

    def test_two_tops_names_the_failing_pair(self, tmp_path, capsys):
        # The failing pair is (c, a) in the top [0, 1]; a and d, which
        # have no join, lie in no common top and are fine in a bouquet.
        path = tmp_path / "two_tops.json"
        path.write_text(json.dumps({
            "elements": ["0", "a", "b", "c", "ab", "1", "d", "r2"],
            "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "ab"], ["b", "ab"],
                       ["ab", "1"], ["c", "1"], ["0", "d"], ["c", "r2"], ["d", "r2"]]}))
        code, out = run(capsys, "check", str(path))
        payload = json.loads(out)
        assert code == 2
        assert payload["bouquet_failure"] == {"reason": "not-semimodular",
                                              "witness": ["c", "a"]}
        _, out = run(capsys, "check", str(path), "--format", "text")
        assert 'bouquet_failure: not-semimodular ["c", "a"]\n' in out

    def test_geometric_is_a_bouquet_with_one_top(self, capsys):
        verdicts = {}
        for path in (PEX, ONE_ATOM):
            _, out = run(capsys, "check", path)
            payload = json.loads(out)
            verdicts[path] = (payload["bouquet"], payload["geometric"])
            assert "bouquet_failure" not in payload
        assert verdicts == {PEX: (True, False), ONE_ATOM: (True, True)}

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "check", str(bad))
        assert code == 3

    def test_matroid_kind(self, capsys):
        code, out = run(capsys, "check", str(FIXTURES / "matroid_u23.json"),
                        "--kind", "matroid")
        assert code == 0
        assert json.loads(out)["simple"] is True

    def test_com_kind(self, capsys):
        code, out = run(capsys, "check",
                        str(FIXTURES / "com_concurrent_lines.json"),
                        "--kind", "com")
        assert code == 0
        assert json.loads(out)["om"] is True

    def test_invalid_matroid(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"ground": ["1"], "independents": [["1"]]}))
        code, out = run(capsys, "check", str(bad), "--kind", "matroid")
        assert code == 2
        assert "EmptySetMissing" in json.loads(out)["error"]

    def test_failing_inputs_independent_of_hash_seed(self, tmp_path):
        # Under hash seeds 1 and 3 the sets of sets are iterated in
        # different orders; the witnesses follow input order instead.
        matroid = tmp_path / "matroid.json"
        matroid.write_text(json.dumps({
            "ground": ["a", "b", "c", "d"],
            "independents": [[], ["a"], ["b"], ["c"], ["d"], ["a", "b"], ["c", "d"]]}))
        bouquet = tmp_path / "bouquet.json"
        bouquet.write_text(json.dumps({
            "ground": ["a", "b", "c"], "roofs": [["a", "b"]],
            "independents": [[], ["a"], ["b"], ["a", "b"], ["c"], ["a", "c"], ["b", "c"]]}))
        path = [str(Path(bouquetdet.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        outputs = []
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            runs = [subprocess.run([sys.executable, "-m", "bouquetdet.cli", "check",
                                    str(f), "--kind", kind], env=env, capture_output=True)
                    for f, kind in ((matroid, "matroid"), (bouquet, "bouquet"))]
            assert [r.returncode for r in runs] == [2, 2]
            outputs.append([r.stdout for r in runs])
        assert outputs[0] == outputs[1]
        errors = [json.loads(out)["error"] for out in outputs[0]]
        assert errors == [
            "ExchangeFails: no element of {c,d} extends {a}",
            'UnionMismatch: independent sets not within any roof: ["{c}", "{a,c}", "{b,c}"]']


class TestPipelineCommands:
    def test_det_example(self, capsys):
        from test_determinant import text_value
        code, out = run(capsys, "det", PEX)
        payload = json.loads(out)
        assert code == 0
        # expanded form of w1^2*w2*w3*w4^2*w5^3*(w2+w3+w5)
        expanded = text_value("w1^2*w2^2*w3*w4^2*w5^3"
                              " + w1^2*w2*w3^2*w4^2*w5^3"
                              " + w1^2*w2*w3*w4^2*w5^4")
        assert payload["det"] == ("w1*w4*w1*w5*(w2^2*w3*w5 + w2*w3^2*w5"
                                  " + w2*w3*w5^2)*w4*w5")
        assert text_value(payload["det"]) == expanded
        assert text_value("*".join(f"({b['det']})" for b in payload["blocks"])) == expanded

    def test_rho_example(self, capsys):
        code, out = run(capsys, "rho", PEX)
        payload = json.loads(out)
        assert code == 0
        assert payload["a1"]["rho"] == 2
        assert payload["r1"]["rho"] == 0

    def test_matrix_roundtrip(self, capsys):
        code, out = run(capsys, "matrix", PEX)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 5
        assert len(payload["chains"]) == 5

    def test_verify_one_atom(self, capsys):
        code, out = run(capsys, "verify", ONE_ATOM)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_verify_randomized_deterministic(self, capsys):
        _, out1 = run(capsys, "verify", PEX, "--mode", "randomized",
                      "--seed", "11")
        _, out2 = run(capsys, "verify", PEX, "--mode", "randomized",
                      "--seed", "11")
        assert out1 == out2

    def test_verify_com(self, capsys):
        code, out = run(capsys, "verify",
                        str(FIXTURES / "com_generic_lines.json"),
                        "--kind", "com")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_verify_bouquet_kind(self, capsys):
        code, out = run(capsys, "verify", str(FIXTURES / "bouquet_example.json"),
                        "--kind", "bouquet")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_verify_not_bouquet(self, capsys):
        code, _ = run(capsys, "verify", PENTAGON)
        assert code == 2

    def test_atom_order_flag(self, capsys):
        code, out = run(capsys, "det", PEX, "--atom-order",
                        "a5,a4,a3,a2,a1")
        assert code == 0
        assert json.loads(out)["det"]  # pipeline works under reordering

    @pytest.mark.parametrize("mode", ["symbolic", "randomized"])
    def test_empty_atom_order_one_element(self, tmp_path, capsys, mode):
        # "" is the empty order: a permutation of the atoms of a poset
        # that has none.  The one block is empty, with determinant 1.
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"elements": ["0"], "covers": []}))
        code, out = run(capsys, "verify", str(path), "--mode", mode,
                        "--atom-order", "")
        report = json.loads(out)
        assert code == 0
        assert (report["verdict"], report["sign"], report["exponents"]) == \
            (True, 1, {"0": 0})

    def test_one_element_poset(self, tmp_path, capsys):
        # The one exemption from dim_r = |mu(0̂, r)| (`chain_matrix`): the
        # family with top 0 has no chain, so its block has dimension 0,
        # while |mu(0̂, 0̂)| = 1.  Its determinant is the empty one, 1.
        from bouquetdet.chains import WeightAssignment
        from bouquetdet.determinant import block_determinants
        from bouquetdet.poset import poset_from_json
        data = {"elements": ["0"], "covers": []}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "matrix", str(path))
        assert code == 0
        assert json.loads(out) == {"chains": [], "entries": [],
                                   "families": [{"top": "0", "start": 0, "stop": 0}]}
        code, out = run(capsys, "verify", str(path))
        report = json.loads(out)
        assert code == 0
        assert (report["verdict"], report["det"], report["blocks"]) == \
            (True, "1", [{"top": "0", "dim": 0, "det": "1"}])
        code, out = run(capsys, "verify", str(path), "--mode", "randomized")
        report = json.loads(out)
        assert code == 0
        assert (report["verdict"], report["blocks"]) == \
            (True, [{"top": "0", "dim": 0, "det": None}])
        # Packed, the block has the empty layout: no variable and degree
        # bound 0, holding the packed 1.  A field is degree.bit_length()
        # bits wide, with no guard bit, so degree 0 gives zero-bit fields
        # and mask 0.
        P = poset_from_json(data)
        assert P.mobius("0") == 1
        [(top, dim, layout, det)] = block_determinants(
            P, min_labeling(P), WeightAssignment.default(P))
        assert (top, dim, det) == ("0", 0, {0: 1})
        assert (layout.fields, layout.top, layout.mask) == ([], 0, 0)


class TestDot:
    def test_one_atom(self, capsys):
        code, out = run(capsys, "dot", ONE_ATOM)
        assert code == 0
        assert out.count("->") == 1

    def test_example_cover_count(self, capsys):
        code, out = run(capsys, "dot", PEX)
        assert code == 0
        assert out.count("->") == 14

    def test_quote_in_name(self, tmp_path, capsys):
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps({"elements": ["0", 'a"b'], "covers": [["0", 'a"b']]}))
        code, out = run(capsys, "dot", str(path))
        assert code == 0
        assert '  "a\\"b";\n' in out
        assert '  "0" -> "a\\"b";\n' in out

    def test_trailing_backslash(self, tmp_path, capsys):
        # the name a\ would print as "a\";, whose \" escapes the closing
        # quote; a backslash elsewhere in a name is kept as it is
        path = tmp_path / "backslash.json"
        path.write_text(json.dumps({"elements": ["0", "a\\"], "covers": [["0", "a\\"]]}))
        assert main(["dot", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'a\\\\' ends in a backslash" in captured.err
        path.write_text(json.dumps({"elements": ["0", "a\\b"], "covers": [["0", "a\\b"]]}))
        code, out = run(capsys, "dot", str(path))
        assert code == 0
        assert '  "0" -> "a\\b";\n' in out

    @pytest.mark.parametrize("kind, module, name", [
        ("com", "com", "com_generic_lines.json"),
        ("bouquet", "matroid", "bouquet_example.json")])
    def test_adapters_only_build(self, monkeypatch, capsys, kind, module, name):
        # The adapters leave the bouquet test to `_load_poset`, which `dot`
        # skips: an adapter poset that is not a bouquet is drawn as it is.
        pentagon = KINDS["poset"].parse(load_fixture("poset_pentagon.json"))
        monkeypatch.setattr(f"bouquetdet.{module}.inclusion_poset",
                            lambda ground, masks: (pentagon, {}))
        code, out = run(capsys, "dot", str(FIXTURES / name), "--kind", kind)
        assert code == 0
        assert (code, out) == run(capsys, "dot", PENTAGON)


class TestTextFormat:
    def test_det_text(self, capsys):
        code, out = run(capsys, "det", PEX, "--format", "text")
        assert code == 0
        _, payload = run(capsys, "det", PEX)
        assert out == json.loads(payload)["det"] + "\n"


COMMANDS = ["check", "matrix", "det", "rho", "verify", "dot"]
FIXTURE_FILES = sorted(p.name for p in FIXTURES.glob("*.json"))
# Exit codes per command, in COMMANDS order, for the fixtures that are not
# all-zero: the pentagon parses as a poset but is not a bouquet, and `dot`
# does not require one.
EXIT_CODES = {"poset_pentagon.json": [2, 2, 2, 2, 2, 0]}


def fixture_kind(name: str) -> str:
    """Fixture files are named <kind>_<instance>.json."""
    return name.split("_")[0]


# Inputs whose names are not strings, or that give a string where an
# array belongs; each is one parse error.
U23 = {"ground": ["a", "b", "c"],
       "independents": [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"]]}
CROSSING = ["++", "+-", "+0", "-+", "--", "-0", "0+", "0-", "00"]
WRONG_SHAPES = [pytest.param(kind, json.dumps(data), 3, id=name) for name, kind, data in [
    ("number-in-ground", "matroid",
     {"ground": ["a", 1], "independents": [[], ["a"], [1], ["a", 1]]}),
    ("number-elements", "poset", {"elements": ["0", 1, 2], "covers": [["0", 1], ["0", 2]]}),
    ("number-in-com-ground", "com", {"ground": ["l1", 2], "covectors": CROSSING}),
    ("string-covers", "poset",
     {"elements": ["0", "a", "b", "t"], "covers": ["0a", "0b", "at", "bt"]}),
    ("string-ground", "matroid", {**U23, "ground": "abc"}),
    ("string-independents", "matroid",
     {**U23, "independents": ["", "a", "b", "c", "ab", "ac", "bc"]}),
    ("string-roofs", "bouquet", {**U23, "roofs": "ab"}),
    ("string-covectors", "com", {"ground": ["l1", "l2"], "covectors": "++"}),
]]


class TestExitCodes:
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_fixture(self, capsys, name, command):
        expected = EXIT_CODES.get(name, [0] * len(COMMANDS))
        code, _ = run(capsys, command, str(FIXTURES / name),
                      "--kind", fixture_kind(name))
        assert code == expected[COMMANDS.index(command)]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kind, text, expected", [
        ("poset", "{not json", 3),
        ("poset", json.dumps({"elements": ["0"]}), 3),
        ("com", json.dumps({"ground": ["e"]}), 3),
        ("poset", "[]", 3),
        ("poset", json.dumps({"elements": ["0", "a"], "covers": [["0"]]}), 3),
    ] + WRONG_SHAPES)
    def test_unparseable(self, tmp_path, capsys, command, kind, text, expected):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, _ = run(capsys, command, str(path), "--kind", kind)
        assert code == expected

    @pytest.mark.parametrize("command", ["verify", "det", "matrix"])
    @pytest.mark.parametrize("labels, expected", [
        pytest.param("[]", 3, id="list"),
        pytest.param(json.dumps({"a1": ["x"]}), 3, id="list-label"),
        pytest.param(json.dumps({"a1": 1}), 3, id="number-label"),
        pytest.param('"a1"', 3, id="string"),
        pytest.param(json.dumps({"a1": "a2"}), 2, id="wrong-atom"),
    ])
    def test_malformed_labeling(self, tmp_path, capsys, command, labels, expected):
        path = tmp_path / "labeling.json"
        path.write_text(labels)
        code = main([command, PEX, "--labeling", str(path)])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("malformed labeling: ") == (expected == 3)

    @pytest.mark.parametrize("command", ["verify", "det", "matrix", "rho"])
    def test_not_a_bouquet_before_labeling(self, tmp_path, capsys, command):
        # Two minimal elements and no atoms: the labeling would fail as
        # well, but the bouquet check comes first in every command.
        path = tmp_path / "two_minimal.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "covers": []}))
        code = main([command, str(path)])
        assert code == 2
        assert capsys.readouterr().err == \
            'poset: not a bouquet of geometric lattices: not-lattice ["a", "b"]\n'

    @pytest.mark.parametrize("command", ["verify", "det", "matrix", "rho"])
    def test_pentagon_names_its_witness(self, capsys, command):
        code = main([command, PENTAGON])
        assert code == 2
        assert capsys.readouterr().err == \
            'poset: not a bouquet of geometric lattices: not-atomic ["c"]\n'

    @pytest.mark.parametrize("command", ["verify", "det", "matrix", "rho"])
    def test_same_witness_text_for_every_kind(self, monkeypatch, capsys, command):
        # No COM or bouquet fixture fails the bouquet test, so each
        # adapter is handed the pentagon: only the kind prefix differs.
        from bouquetdet import com, matroid
        pentagon = KINDS["poset"].parse(load_fixture("poset_pentagon.json"))
        errors = {}
        for kind, module, name in [("com", com, "com_generic_lines.json"),
                                   ("bouquet", matroid, "bouquet_example.json")]:
            monkeypatch.setattr(module, "inclusion_poset", lambda ground, masks: (pentagon, {}))
            assert main([command, str(FIXTURES / name), "--kind", kind]) == 2
            errors[kind] = capsys.readouterr().err
        assert errors == {kind: f"{kind}: not a bouquet of geometric lattices: "
                                f'not-atomic ["c"]\n' for kind in errors}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_simple_matroid(self, tmp_path, capsys, command):
        # 1 and 2 are parallel: valid as a matroid, but it has no flat lattice.
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps({"ground": ["1", "2"],
                                    "independents": [[], ["1"], ["2"]]}))
        code, out = run(capsys, command, str(path), "--kind", "matroid")
        if command == "check":
            assert code == 0 and json.loads(out)["simple"] is False
        else:
            assert code == 2

    @pytest.mark.parametrize("command", ["verify", "det", "matrix"])
    @pytest.mark.parametrize("labeling", ["min", "explicit"])
    @pytest.mark.parametrize("order", [
        pytest.param("a1,a2", id="missing"),
        pytest.param("a1,a1,a2,a3,a4,a5", id="repeated"),
        pytest.param("a1,zz,a2,a3,a4,a5", id="unknown"),
        pytest.param("", id="empty"),
    ])
    def test_bad_atom_order(self, tmp_path, capsys, bouquet_example,
                            command, labeling, order):
        # The order is checked once, before either labeling is built.
        if labeling == "explicit":
            labeling = tmp_path / "labeling.json"
            labeling.write_text(json.dumps(min_labeling(bouquet_example)))
        code = main([command, PEX, "--labeling", str(labeling),
                     "--atom-order", order])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == \
            ("", "atom_order must be a permutation of the atoms\n")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kind, data", [
        # two crossing lines under one name
        pytest.param("com", {"ground": ["l1", "l1"],
                             "covectors": ["".join(v) for v in
                                           product("+-0", repeat=2)]},
                     id="com"),
        pytest.param("bouquet", {"ground": ["x", "x", "y"],
                                 "roofs": [["x"], ["y"]],
                                 "independents": [[], ["x"], ["y"]]},
                     id="bouquet"),
        pytest.param("bouquet", {"ground": ["x"], "roofs": [["x"], ["y"]],
                                 "independents": [[], ["x"], ["y"]]},
                     id="bouquet-roof-outside"),
    ])
    def test_bad_ground(self, tmp_path, capsys, command, kind, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, _ = run(capsys, command, str(path), "--kind", kind)
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "det"])
    @pytest.mark.parametrize("name, top, dim", [
        pytest.param("M(K5)", "{12,13,14,15,23,24,25,34,35,45}", 24, id="K5"),
        pytest.param("U(4,7)", "{0,1,2,3,4,5,6}", 20, id="U47"),
    ])
    def test_block_too_large(self, tmp_path, capsys, command, name, top, dim):
        # Symbolic mode refuses a block above dimension 15 before it
        # expands any block.
        if name == "M(K5)":
            path = K5
        else:
            path = tmp_path / "u47.json"
            ground = list("0123456")
            path.write_text(json.dumps({"ground": ground, "independents": [
                list(s) for k in range(5) for s in combinations(ground, k)]}))
        start = time.monotonic()
        code = main([command, str(path), "--kind", "matroid"])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"the block with top {top} has dimension {dim}, "
                                f"above 15, the largest that symbolic mode "
                                f"expands; verify it with --mode randomized\n")
        assert elapsed < 5

    def test_k5_verifies_randomized(self, capsys):
        # The oversized fixture is a bouquet: exit 2 above comes from the cap.
        assert len(load_fixture("oversized/matroid_k5.json")["independents"]) == 291
        code, out = run(capsys, "verify", str(K5), "--kind", "matroid",
                        "--mode", "randomized", "--trials", "2")
        assert code == 0
        assert [b["dim"] for b in json.loads(out)["blocks"]] == [24]

    @pytest.mark.parametrize("mode", ["symbolic", "randomized"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_verify_no_trials(self, tmp_path, capsys, mode, trials):
        # The count is checked before the input is read: a missing file
        # gets the same line.
        for path in (PEX, str(tmp_path / "missing.json")):
            assert main(["verify", path, "--mode", mode, "--trials", trials]) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "trials must be >= 1\n")


class TestSurface:
    @pytest.mark.parametrize("option, value", [("--labeling", "min"),
                                               ("--atom-order", "a5,a4,a3,a2,a1")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_pipeline_options_only_where_read(self, capsys, command, option, value):
        argv = [command, PEX, option, value]
        if command in ("matrix", "det", "verify"):
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_one_error_root(self):
        # `main` turns the root into exit 2; only the CLI's own error,
        # which carries its exit code, stands outside it.
        from bouquetdet import chains, cli, com, determinant, matroid, poset
        defined = {obj for mod in (poset, chains, matroid, com, determinant, cli)
                   for obj in vars(mod).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == mod.__name__}
        assert {"InvalidLabeling", "RoofNotMatroid", "SEViolation", "TooLarge"} \
            <= {e.__name__ for e in defined}
        assert [e.__name__ for e in defined
                if not issubclass(e, poset.BouquetdetError)] == ["CliError"]

    def test_import_loads_no_introspection(self):
        # `setup_s` times a fresh `import bouquetdet.cli`: these modules
        # cost milliseconds of it, and the CLI needs none of them.
        script = ("import sys, bouquetdet.cli\n"
                  "print(sorted({'ast', 'dataclasses', 'dis', 'inspect'}"
                  " & set(sys.modules)))\n")
        path = [str(Path(bouquetdet.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestRunOnce:
    """Each pipeline step runs once per CLI call."""

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    @pytest.mark.parametrize("command", ["matrix", "det", "rho", "verify"])
    def test_one_bouquet_evaluation(self, monkeypatch, capsys, name, command):
        # The adapters of the bouquet and COM kinds and the CLI each
        # require a bouquet; the pass runs once, the rest read its verdict.
        from bouquetdet.poset import Poset
        calls = []
        original = Poset._failure_pass
        monkeypatch.setattr(Poset, "_failure_pass",
                            lambda self: calls.append(self) or original(self))
        run(capsys, command, str(FIXTURES / name), "--kind", fixture_kind(name))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", [n for n in FIXTURE_FILES
                                      if fixture_kind(n) == "poset"])
    def test_check_one_bouquet_pass(self, monkeypatch, capsys, name):
        # `check` reports the bouquet verdict, the geometric verdict and
        # the witness, all from one pass.
        from bouquetdet.poset import Poset
        calls = []
        original = Poset._failure_pass
        monkeypatch.setattr(Poset, "_failure_pass",
                            lambda self: calls.append(self) or original(self))
        run(capsys, "check", str(FIXTURES / name), "--kind", "poset")
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("argv", [
        pytest.param(("verify",), id="verify-symbolic"),
        pytest.param(("verify", "--mode", "randomized"), id="verify-randomized"),
        pytest.param(("det",), id="det"),
    ])
    def test_rhs_expansions(self, monkeypatch, capsys, name, argv):
        # The blocks are never multiplied together: no product takes two
        # block determinants.  (Neither mode expands the global
        # prod w(x)^rho(x); see TestBlockVerdict in test_determinant.)
        # Every product goes through `mul_into` on packed dicts, which
        # are held here so that no id is reused.
        from bouquetdet import determinant
        blocks, pairs = [], []
        det_minors, mul_into = determinant.det_minors, determinant.mul_into
        monkeypatch.setattr(determinant, "det_minors",
                            lambda B: blocks.append(det_minors(B)) or blocks[-1])
        monkeypatch.setattr(determinant, "mul_into", lambda out, a, b: pairs.append(
            (a, b)) or mul_into(out, a, b))
        code, _ = run(capsys, argv[0], str(FIXTURES / name), *argv[1:],
                      "--kind", fixture_kind(name))
        assert code == 0
        ids = set(map(id, blocks))
        assert not [p for p in pairs if id(p[0]) in ids and id(p[1]) in ids]

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_matrix_packs_each_family_once(self, monkeypatch, capsys, name, fmt):
        # The entries are formed by family blocks only: one `packed_block`
        # call per family, on exactly that family's Gram vectors.
        from bouquetdet import chains
        kind = KINDS[fixture_kind(name)]
        P = kind.poset(kind.parse(load_fixture(name)))
        M = chains.chain_matrix(P, min_labeling(P), chains.WeightAssignment.default(P))
        calls = []
        packed_block = chains.packed_block
        monkeypatch.setattr(chains, "packed_block",
                            lambda G: calls.append(G) or packed_block(G))
        code, _ = run(capsys, "matrix", str(FIXTURES / name), "--kind",
                      fixture_kind(name), "--format", fmt)
        assert code == 0
        assert calls == [M.vectors[start:stop] for start, stop in M.family_bounds]

    @staticmethod
    def determinant_texts(monkeypatch, capsys, command, name, fmt):
        """Run `command`; return the packed block determinants det_minors
        returned and the packed polynomials `Packing.text` printed."""
        from bouquetdet import determinant
        from bouquetdet.polyring import Packing
        dets, formatted = [], []
        det_minors = determinant.det_minors
        monkeypatch.setattr(determinant, "det_minors",
                            lambda B: dets.append(det_minors(B)) or dets[-1])
        text = Packing.text
        monkeypatch.setattr(Packing, "text",
                            lambda self, d: formatted.append(d) or text(self, d))
        code, _ = run(capsys, command, str(FIXTURES / name), "--kind",
                      fixture_kind(name), "--format", fmt)
        assert code == 0
        return dets, formatted

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_determinant_formatted_once(self, monkeypatch, capsys, name, fmt):
        # Every fixture verifies: each block is formatted once, and
        # nothing else is (no product, no right-hand side).
        dets, formatted = self.determinant_texts(monkeypatch, capsys, "verify", name, fmt)
        assert sorted(map(id, formatted)) == sorted(map(id, dets))

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_det_determinant_formatted_once(self, monkeypatch, capsys, name, fmt):
        dets, formatted = self.determinant_texts(monkeypatch, capsys, "det", name, fmt)
        assert sorted(map(id, formatted)) == sorted(map(id, dets))

    @pytest.mark.parametrize("case", [c for c in sorted(GOLDEN_DIGESTS)
                                      if c.split()[0] in ("matrix", "det", "verify")])
    def test_no_polynomial_printed(self, monkeypatch, case):
        # Every entry and block determinant is printed from its packed
        # layout: the output is the pinned one with no polynomial built
        # and nothing unpacked.
        from bouquetdet.polyring import Packing, Polynomial

        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(Packing, "unpack", refuse)
        monkeypatch.setattr(Polynomial, "__init__", refuse)
        assert digest(golden_cases()[case]) == GOLDEN_DIGESTS[case]

    def test_parser_built_once(self, capsys):
        """The argparse tree is built once per process, and an argparse
        error leaves it fit for the next call."""
        argv = ["verify", PEX, "--format", "text"]
        build_parser.cache_clear()
        alone = run(capsys, *argv)
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["verify", PEX, "--mode", "exact"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == alone
        assert build_parser.cache_info().misses == 1

    def test_seed_not_read_from_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("BOUQUETDET_SEED", "5")
        code, out = run(capsys, "verify", PEX, "--mode", "randomized")
        assert code == 0
        assert json.loads(out)["seed"] == 0


def perturb_block(monkeypatch, change):
    """Make det_minors return change(det) for the first block it sees;
    det and change(det) are packed in the block's layout."""
    from bouquetdet import determinant
    original = determinant.det_minors
    seen = []

    def patched(B):
        seen.append(1)
        return change(original(B)) if len(seen) == 1 else original(B)

    monkeypatch.setattr(determinant, "det_minors", patched)


class TestPerturbedVerdict:
    """Block determinants altered by hand: the only inputs whose verdict
    is false."""

    @staticmethod
    def texts(out, fmt):
        """(verdict, sign, det, product) from a `verify` output."""
        if fmt == "json":
            payload = json.loads(out)
            return payload["verdict"], payload["sign"], payload["det"], payload["product"]
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        sign = None if lines["sign"] == "None" else int(lines["sign"])
        return lines["verdict"] == "True", sign, lines["det"], lines["product"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_negated_block(self, monkeypatch, capsys, fmt):
        from bouquetdet.poset import poset_from_json
        from test_determinant import global_verdict, text_value
        P = poset_from_json(load_fixture("poset_bouquet_example.json"))
        _, _, unperturbed, rhs = global_verdict(P)
        _, plain = run(capsys, "det", PEX, "--format", "text")
        perturb_block(monkeypatch, lambda d: {k: -c for k, c in d.items()})
        code, out = run(capsys, "verify", PEX, "--format", fmt)
        # No block determinant has a negative coefficient (Cauchy-Binet),
        # so a negated block is a miss.
        assert code == 1
        verdict, sign, det, product = self.texts(out, fmt)
        # The first block, w1*w4, is one term: negating it negates the text.
        assert (verdict, sign, det) == (False, None, "-" + plain.strip())
        assert product == "w1^2*w2*w3*w4^2*w5^3*(w2 + w3 + w5)"
        assert text_value(det) == text_value((-unperturbed).to_string())
        assert text_value(product) == text_value(rhs.to_string())

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_scaled_block(self, monkeypatch, capsys, fmt):
        from bouquetdet.poset import poset_from_json
        from test_determinant import global_verdict, text_value
        _, _, unperturbed, rhs = global_verdict(
            poset_from_json(load_fixture("poset_bouquet_example.json")))
        perturb_block(monkeypatch, lambda d: {k: 2 * c for k, c in d.items()})
        code, out = run(capsys, "verify", PEX, "--format", fmt)
        assert code == 1
        verdict, sign, det, product = self.texts(out, fmt)
        assert (verdict, sign) == (False, None)
        assert product == "w1^2*w2*w3*w4^2*w5^3*(w2 + w3 + w5)"
        assert text_value(product) == text_value(rhs.to_string())
        assert text_value(det) == 2 * text_value(unperturbed.to_string())
