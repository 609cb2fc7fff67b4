import json
from itertools import product

import pytest

from bouquetdet.chains import min_labeling
from bouquetdet.cli import main
from conftest import FIXTURES, load_fixture

PEX = str(FIXTURES / "poset_bouquet_example.json")
PENTAGON = str(FIXTURES / "poset_pentagon.json")
ONE_ATOM = str(FIXTURES / "poset_one_atom.json")


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
        assert payload["geometric"] is False
        assert "witness" in payload["geometric_failure"]

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


class TestDot:
    def test_one_atom(self, capsys):
        code, out = run(capsys, "dot", ONE_ATOM)
        assert code == 0
        assert out.count("->") == 1

    def test_example_cover_count(self, capsys):
        code, out = run(capsys, "dot", PEX)
        assert code == 0
        assert out.count("->") == 14


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
    ])
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
            "input poset is not a bouquet of geometric lattices\n"

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
    ])
    def test_bad_atom_order(self, tmp_path, capsys, bouquet_example,
                            command, labeling, order):
        # The order is checked once, before either labeling is built.
        if labeling == "explicit":
            labeling = tmp_path / "labeling.json"
            labeling.write_text(json.dumps(min_labeling(bouquet_example).labels))
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


class TestRunOnce:
    """Each pipeline step runs once per CLI call."""

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    @pytest.mark.parametrize("command", ["matrix", "det", "rho", "verify"])
    def test_one_bouquet_evaluation(self, monkeypatch, capsys, name, command):
        # Every fixture has a bottom element, so one evaluation of the
        # bouquet check runs exactly one meet-semilattice test.
        from bouquetdet.poset import Poset
        calls = []
        original = Poset.is_meet_semilattice
        monkeypatch.setattr(Poset, "is_meet_semilattice",
                            lambda self: calls.append(self) or original(self))
        run(capsys, command, str(FIXTURES / name), "--kind", fixture_kind(name))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", [n for n in FIXTURE_FILES
                                      if fixture_kind(n) == "poset"])
    def test_check_one_meet_evaluation(self, monkeypatch, capsys, name):
        # `check` reports the meet-semilattice verdict and the bouquet
        # verdict; the second reuses the first.  Count the tests that are
        # evaluated, not the verdicts read back from the poset.
        from bouquetdet.poset import Poset
        calls = []
        original = Poset.is_meet_semilattice

        def counting(self):
            if self._semilattice is None:
                calls.append(self)
            return original(self)

        monkeypatch.setattr(Poset, "is_meet_semilattice", counting)
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
        from bouquetdet import determinant
        from bouquetdet.polyring import Polynomial
        blocks, pairs = set(), []
        bareiss = determinant.det_bareiss
        monkeypatch.setattr(determinant, "det_bareiss",
                            lambda B: blocks.add(id(d := bareiss(B))) or d)
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__",
                            lambda a, b: pairs.append((id(a), id(b))) or mul(a, b))
        code, _ = run(capsys, argv[0], str(FIXTURES / name), *argv[1:],
                      "--kind", fixture_kind(name))
        assert code == 0
        assert not [p for p in pairs if p[0] in blocks and p[1] in blocks]

    @staticmethod
    def determinant_texts(monkeypatch, capsys, command, name, fmt):
        """Run `command`; return the block determinants, in the order
        det_bareiss returned them, and the polynomials it formatted."""
        from bouquetdet import determinant
        from bouquetdet.polyring import Polynomial
        dets, formatted = [], []
        bareiss = determinant.det_bareiss
        monkeypatch.setattr(determinant, "det_bareiss",
                            lambda B: dets.append(bareiss(B)) or dets[-1])
        to_string = Polynomial.to_string
        monkeypatch.setattr(Polynomial, "to_string",
                            lambda self, *a: formatted.append(self) or to_string(self, *a))
        code, _ = run(capsys, command, str(FIXTURES / name), "--kind",
                      fixture_kind(name), "--format", fmt)
        assert code == 0
        return dets, formatted

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_determinant_formatted_once(self, monkeypatch, capsys, name, fmt):
        # Every fixture verifies with sign +1: each block is formatted
        # once, and nothing else is (no product, no right-hand side).
        dets, formatted = self.determinant_texts(monkeypatch, capsys, "verify", name, fmt)
        assert sorted(map(id, formatted)) == sorted(map(id, dets))

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_det_determinant_formatted_once(self, monkeypatch, capsys, name, fmt):
        dets, formatted = self.determinant_texts(monkeypatch, capsys, "det", name, fmt)
        assert sorted(map(id, formatted)) == sorted(map(id, dets))

    def test_seed_not_read_from_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("BOUQUETDET_SEED", "5")
        code, out = run(capsys, "verify", PEX, "--mode", "randomized")
        assert code == 0
        assert json.loads(out)["seed"] == 0


def perturb_block(monkeypatch, change):
    """Make det_bareiss return change(det) for the first block it sees."""
    from bouquetdet import determinant
    original = determinant.det_bareiss
    seen = []

    def patched(B):
        seen.append(1)
        return change(original(B)) if len(seen) == 1 else original(B)

    monkeypatch.setattr(determinant, "det_bareiss", patched)


class TestPerturbedVerdict:
    """Block determinants altered by hand: the only inputs whose verdict
    is false or whose sign is -1."""

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
        perturb_block(monkeypatch, lambda d: -d)
        code, out = run(capsys, "verify", PEX, "--format", fmt)
        assert code == 0
        verdict, sign, det, product = self.texts(out, fmt)
        # The first block, w1*w4, is one term: negating it negates the text.
        assert (verdict, sign, det, product) == (True, -1, "-" + plain.strip(), plain.strip())
        assert text_value(det) == text_value((-unperturbed).to_string())
        assert text_value(product) == text_value(rhs.to_string())

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_scaled_block(self, monkeypatch, capsys, fmt):
        from bouquetdet.polyring import Polynomial
        from bouquetdet.poset import poset_from_json
        from test_determinant import global_verdict, text_value
        _, _, unperturbed, rhs = global_verdict(
            poset_from_json(load_fixture("poset_bouquet_example.json")))
        perturb_block(monkeypatch, lambda d: d * Polynomial.const(2))
        code, out = run(capsys, "verify", PEX, "--format", fmt)
        assert code == 1
        verdict, sign, det, product = self.texts(out, fmt)
        assert (verdict, sign) == (False, None)
        assert product == "w1^2*w2*w3*w4^2*w5^3*(w2 + w3 + w5)"
        assert text_value(product) == text_value(rhs.to_string())
        assert text_value(det) == 2 * text_value(unperturbed.to_string())
