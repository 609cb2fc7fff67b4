import json

import pytest

from bouquetdet.cli import main
from conftest import FIXTURES

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
        code, out = run(capsys, "det", PEX)
        payload = json.loads(out)
        assert code == 0
        # expanded form of w1^2*w2*w3*w4^2*w5^3*(w2+w3+w5)
        assert payload["det"] == ("w1^2*w2^2*w3*w4^2*w5^3"
                                  " + w1^2*w2*w3^2*w4^2*w5^3"
                                  " + w1^2*w2*w3*w4^2*w5^4")

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
        assert out.strip().startswith("w1^2")


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
    ])
    def test_unparseable(self, tmp_path, capsys, command, kind, text, expected):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, _ = run(capsys, command, str(path), "--kind", kind)
        assert code == expected

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

    @pytest.mark.parametrize("name", sorted(set(FIXTURE_FILES) - set(EXIT_CODES)))
    @pytest.mark.parametrize("argv, expansions", [
        pytest.param(("verify",), 1, id="verify-symbolic"),
        pytest.param(("verify", "--mode", "randomized"), 0, id="verify-randomized"),
        pytest.param(("det",), 0, id="det"),
    ])
    def test_rhs_expansions(self, monkeypatch, capsys, name, argv, expansions):
        from bouquetdet import determinant
        calls = []
        original = determinant.power_product
        monkeypatch.setattr(determinant, "power_product",
                            lambda factors: calls.append(1) or original(factors))
        code, _ = run(capsys, argv[0], str(FIXTURES / name), *argv[1:],
                      "--kind", fixture_kind(name))
        assert code == 0
        assert len(calls) == expansions
