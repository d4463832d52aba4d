import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lawvere.builtin import BASE_THEORIES
from lawvere.cli import main
from lawvere.distlaw import (BUILTIN_LAWS, BUILTIN_SERIES, ps_monoid_theory,
                             ring_theory)
from lawvere.fragments import FRAGMENTS
from lawvere.parser import parse_term
from lawvere.theory import compose, morphism, morphism_from_json


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv, hash_seed="0"):
    """The CLI in a fresh interpreter, as a shell user would run it."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    env.pop("LAWVERE_SAMPLES", None)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from lawvere.cli import main; sys.exit(main())",
         *argv], capture_output=True, text=True, env=env, timeout=300)


def test_factorize_fixture(capsys):
    code, out, _ = run(capsys, "factorize", "--theory", "ring",
                       "--morphism", "ab+c", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["middle"] == 2
    assert set(data["left"]["components"]) == {"ab", "c"}
    assert data["right"]["components"] == ["a+b"]
    assert data["schemaVersion"] == 1


def test_compose_fixture(capsys):
    code, out, _ = run(capsys, "compose", "--theory", "monoid",
                       "--source", "3", "--first", "abc,ab^2c^2",
                       "--second", "a^2b", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["composite"] == {"source": 3, "target": 1,
                                 "components": ["abcabcabbcc"]}


def test_compose_prints_a_word_longer_than_the_recursion_limit(capsys):
    # a^150 after a^150 is a product of 22,500 letters, which the printer
    # flattens in a loop
    code, out, err = run(capsys, "compose", "--theory", "monoid",
                         "--source", "1", "--first", "a^150",
                         "--second", "a^150", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["composite"]["components"] == ["a" * 22500]


def test_check_law_vacuous_pass(capsys):
    # a PASS with every diagram at 0/0 would say nothing was wrong having
    # checked nothing
    code, out, err = run(capsys, "check-law", "--law", "ring",
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert "nothing to check" in err


@pytest.mark.parametrize("argv", [("check-law", "--law", "ring"),
                                  ("check-yb", "--series", "ring3")],
                         ids=["check-law", "check-yb"])
@pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
def test_zero_samples_exit_two(capsys, monkeypatch, argv, from_env):
    if from_env:
        monkeypatch.setenv("LAWVERE_SAMPLES", "0")
    else:
        monkeypatch.delenv("LAWVERE_SAMPLES", raising=False)
        argv += ("--samples", "0")
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert "nothing to check" in err
    assert ("LAWVERE_SAMPLES" in err) == from_env


def test_check_law_json_structure(capsys):
    code, out, _ = run(capsys, "check-law", "--law", "ring",
                       "--samples", "25", "--seed", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3
    diagrams = {d["diagram"] for d in data["diagrams"]}
    assert diagrams == {"unit-inner", "mult-inner", "unit-outer",
                        "mult-outer", "naturality"}
    assert all(d["sampleCount"] == 25 and d["failures"] == []
               for d in data["diagrams"])


def test_check_yb(capsys):
    code, out, _ = run(capsys, "check-yb", "--series", "ring3",
                       "--samples", "25", "--seed", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["seed"] == 7


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--theory", "monoid",
                       "--arity", "2", "--size", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 7


def test_check_fs_small(capsys):
    code, out, _ = run(capsys, "check-fs", "--theory", "ring",
                       "--arity", "1", "--size", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []


def test_ps_monoid_composite(capsys):
    # the inner and outer layers come from the pointed-semigroup law
    code, out, _ = run(capsys, "factorize", "--theory", "ps-monoid",
                       "--morphism", "ab,b", "--arity", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["middle"] == 2
    assert data["left"]["components"] == ["ab", "b"]
    assert data["right"]["components"] == ["a", "b"]
    code, out, _ = run(capsys, "check-fs", "--theory", "ps-monoid",
                       "--arity", "1", "--size", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["sampleCount"] == 6


@pytest.mark.parametrize("argv", [
    ("enumerate", "--theory", "monoid", "--arity", "-1", "--size", "3"),
    ("check-law", "--law", "ring", "--samples", "-3"),
    ("roundtrip", "--monad", "free-monoid", "--size", "-1"),
])
def test_negative_bounds_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_roundtrip(capsys):
    code, out, _ = run(capsys, "roundtrip", "--monad", "pointed",
                       "--bound", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passCount"] == data["sampleCount"]


def test_correspond(capsys):
    code, out, _ = run(capsys, "correspond", "--law", "ring",
                       "--size", "4", "--samples", "20", "--json")
    assert code == 0


@pytest.mark.parametrize("law", ["ring", "pointed-semigroup"])
def test_correspond_without_normal_forms_to_compose_exits_two(capsys, law):
    code, out, err = run(capsys, "correspond", "--law", law, "--size", "0",
                         "--samples", "5")
    assert (code, out) == (2, "")
    assert "--size 0" in err and "Traceback" not in err
    # with no compositions to draw the request is valid
    assert run(capsys, "correspond", "--law", law, "--size", "0",
               "--samples", "0")[0] != 2


@pytest.mark.parametrize("monad, bound", [("free-semigroup", "2"),
                                          ("free-ring", "1")])
def test_roundtrip_over_empty_carriers_exits_two(capsys, monad, bound):
    code, out, err = run(capsys, "roundtrip", "--monad", monad, "--bound",
                         bound, "--size", "0", "--json")
    assert (code, out) == (2, "")
    assert "--size 0" in err and "nothing would be checked" in err
    # one nonempty carrier is enough to check something
    assert run(capsys, "roundtrip", "--monad", monad, "--bound", bound,
               "--size", "1")[0] == 0


def test_unknown_names_exit_two(capsys):
    # "monoid" is a theory but not a composite one, and "semigroup-sum" a
    # law with no correspondence fixture
    for argv in (["check-law", "--law", "nope"],
                 ["enumerate", "--theory", "nope", "--arity", "1",
                  "--size", "1"],
                 ["compose", "--theory", "nope", "--source", "1",
                  "--first", "x0", "--second", "x0"],
                 ["factorize", "--theory", "monoid", "--morphism", "ab"],
                 ["check-fs", "--theory", "monoid"],
                 ["check-yb", "--series", "nope"],
                 ["roundtrip", "--monad", "nope"],
                 ["correspond", "--law", "semigroup-sum"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"invalid choice: {argv[2]!r}" in err, (argv, err)


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "factorize", "--theory", "ring",
                       "--morphism", "ab+")
    assert code == 2
    assert "position" in err


def test_determinism_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "check-law", "--law", "ring",
                         "--samples", "40", "--seed", "11", "--json",
                         "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_writes_json_without_the_json_flag(tmp_path, capsys):
    argv = ["enumerate", "--theory", "monoid", "--arity", "1", "--size",
            "1"]
    code, printed, _ = run(capsys, *argv, "--json")
    assert code == 0
    for flags in (["--json"], []):
        path = tmp_path / f"report{len(flags)}.json"
        code, out, _ = run(capsys, *argv, *flags, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == printed


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    # a missing parent directory, and a path that is a directory
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "enumerate", "--theory", "monoid",
                             "--arity", "1", "--size", "1", "--json",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert f"cannot write {str(path)!r}" in err


def test_env_var_sample_default(capsys, monkeypatch):
    monkeypatch.setenv("LAWVERE_SAMPLES", "7")
    code, out, _ = run(capsys, "check-law", "--law", "ring", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(d["sampleCount"] == 7 for d in data["diagrams"])


def test_explicit_samples_beat_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LAWVERE_SAMPLES", "7")
    code, out, _ = run(capsys, "check-law", "--law", "ring",
                       "--samples", "25", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(d["sampleCount"] == 25 for d in data["diagrams"])


def test_env_var_read_on_every_call(capsys, monkeypatch):
    # one parser serves every call in a process; the variable is read when
    # the arguments are parsed, not when the parser was built
    for value in (3, 6):
        monkeypatch.setenv("LAWVERE_SAMPLES", str(value))
        code, out, _ = run(capsys, "check-law", "--law", "ring", "--json")
        assert code == 0
        data = json.loads(out)
        assert all(d["sampleCount"] == value for d in data["diagrams"])


@pytest.mark.parametrize("law", ["ring", "pointed-semigroup"])
@pytest.mark.parametrize("size", ["0", "1"])
def test_correspond_at_the_smallest_sizes(capsys, law, size):
    # size 0 admits no term and no carrier element (the empty word of the
    # free monoid displays as one node); size 1 admits the letters and the
    # constants on both sides.  With no samples the law-axioms stage draws
    # nothing and is not counted: only the three hom bijections are
    code, out, _ = run(capsys, "correspond", "--law", law, "--size", size,
                       "--samples", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["passCount"] == data["sampleCount"] == 3


@pytest.mark.parametrize("value", ["-5", "many"])
def test_bad_env_var_sample_default_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("LAWVERE_SAMPLES", value)
    code, out, err = run(capsys, "check-law", "--law", "ring")
    assert code == 2
    assert out == ""
    assert "--samples" in err
    assert f"LAWVERE_SAMPLES must be an integer >= 0, got '{value}'" in err


CHAIN2 = {
    "objects": ["x", "y"],
    "morphisms": [
        {"name": "id_x", "src": "x", "tgt": "x"},
        {"name": "id_y", "src": "y", "tgt": "y"},
        {"name": "f", "src": "x", "tgt": "y"},
    ],
    "identities": {"x": "id_x", "y": "id_y"},
    "composition": [["id_x", "id_x", "id_x"],
                    ["id_y", "id_y", "id_y"],
                    ["f", "id_x", "f"], ["id_y", "f", "f"]],
}

HOM = {
    "src": "C", "tgt": "C",
    "table": [
        {"d": "x", "c": "x", "elements": ["id_x"]},
        {"d": "x", "c": "y", "elements": ["f"]},
        {"d": "y", "c": "x", "elements": []},
        {"d": "y", "c": "y", "elements": ["id_y"]},
    ],
    "cAction": [
        {"morphism": "id_x", "d": "x", "element": "id_x", "to": "id_x"},
        {"morphism": "f", "d": "x", "element": "id_x", "to": "f"},
        {"morphism": "id_y", "d": "x", "element": "f", "to": "f"},
        {"morphism": "id_y", "d": "y", "element": "id_y", "to": "id_y"},
    ],
    "dAction": [
        {"morphism": "id_x", "c": "x", "element": "id_x", "to": "id_x"},
        {"morphism": "id_x", "c": "y", "element": "f", "to": "f"},
        {"morphism": "id_y", "c": "y", "element": "id_y", "to": "id_y"},
        {"morphism": "f", "c": "y", "element": "id_y", "to": "f"},
    ],
}

TABLES = {
    "schemaVersion": 1,
    "categories": {"C": CHAIN2},
    "profunctors": {"H": HOM},
    "compose": ["H", "H"],
}


def without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


def coend_file(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(TABLES))
    return path


def test_factorize_deep_parentheses_is_a_usage_error():
    depth = 5000
    proc = run_process("factorize", "--theory", "ring",
                       "--morphism=" + "(" * depth + "a" + ")" * depth)
    assert proc.returncode == 2
    assert "nests too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("morphism, position", [
    ("a^1000000", 2),
    ("(a^40)^40", 7),
], ids=["flat", "nested"])
def test_factorize_long_power_is_a_usage_error(morphism, position):
    proc = run_process("factorize", "--theory", "ps-monoid", "--arity", "1",
                       "--morphism", morphism)
    assert proc.returncode == 2
    assert ("power nests too deeply (more than 1000 products) "
            f"(at position {position})") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("check-fs", "--theory", "ring", "--arity", "2", "--size", "3"),
    ("check-law", "--law", "ring", "--samples", "50"),
    ("check-yb", "--series", "ring3", "--samples", "15"),
    ("correspond", "--law", "ring", "--size", "4", "--samples", "20"),
    ("roundtrip", "--monad", "pointed", "--bound", "2", "--size", "2"),
], ids=lambda argv: argv[0])
def test_check_fs_json_ignores_the_hash_seed(argv):
    # the checkers walk sets and dicts of terms, whose hashes mix in string
    # hashes; no report may depend on the order that gives them
    runs = [run_process(*argv, "--json", hash_seed=seed)
            for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    data = json.loads(runs[0].stdout)
    assert min(d["sampleCount"] for d in data.get("diagrams", [data])) > 0
    assert runs[0].stdout == runs[1].stdout


def test_check_coend_json_ignores_the_hash_seed(tmp_path):
    # the coend quotient walks dicts keyed by table names; its report
    # carries sizes, not a sampleCount
    path = coend_file(tmp_path)
    runs = [run_process("check-coend", "--file", str(path), "--json",
                        hash_seed=seed) for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert json.loads(runs[0].stdout)["composite"]["size"] == 3
    assert runs[0].stdout == runs[1].stdout


def test_check_coend_roundtrip(tmp_path, capsys):
    path = coend_file(tmp_path)
    code, out, _ = run(capsys, "check-coend", "--file", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["profunctors"]["H"] == 3
    # composing the hom table with itself gives the hom table again
    assert data["composite"]["size"] == 3


def test_check_coend_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "check-coend", "--file", str(path))[0] == 2
    path.write_text(json.dumps({"categories": {"C": {"objects": []}}}))
    assert run(capsys, "check-coend", "--file", str(path))[0] == 2
    path.write_bytes(b"\xff\xfe{}")
    assert run(capsys, "check-coend", "--file", str(path))[0] == 2
    path.write_text("[" * 100000 + "]" * 100000)
    assert run(capsys, "check-coend", "--file", str(path))[0] == 2


@pytest.mark.parametrize("data, message", [
    ([], "must be JSON objects"),
    ({"categories": []}, "must be JSON objects"),
    ({"categories": {"C": {
        "objects": ["x"],
        "morphisms": [{"name": "id_x", "src": "x", "tgt": "x"}],
        "identities": {"x": "id_x"},
        "composition": [["id_x", "id_x"]]}}}, "must be a triple"),
    ({"categories": {"C": {
        "objects": ["x"],
        "morphisms": ["id_x"],
        "identities": {"x": "id_x"},
        "composition": [["id_x", "id_x", "id_x"]]}}},
     "every morphism must be an object"),
    ({"compose": ["H", "H", "H"]}, "list of two profunctor names"),
    ({"categories": {"C": dict(CHAIN2, morphisms=5)}},
     "category 'C': \"morphisms\" must be a JSON list"),
    ({"categories": {"C": dict(CHAIN2, objects=3)}},
     "category 'C': \"objects\" must be a JSON list"),
    ({"categories": {"C": CHAIN2}, "profunctors": {"H": dict(HOM, table=[5])}},
     "profunctor 'H': every \"table\" entry must be an object"),
    ({"categories": {"C": CHAIN2}, "profunctors": {"H": dict(HOM, table=[
        {"d": "x", "c": "x", "elements": "id_x"}])}},
     "profunctor 'H': \"elements\" must be a JSON list"),
    (dict(TABLES, schemaVersion=2), "\"schemaVersion\" must be 1, got 2"),
    (dict(TABLES, schemaVersion="1"),
     "\"schemaVersion\" must be 1, got \"1\""),
    (dict(TABLES, schemaVersion=1.0), "\"schemaVersion\" must be 1, got 1.0"),
    (dict(TABLES, schemaVersion=True),
     "\"schemaVersion\" must be 1, got true"),
    (dict(TABLES, schemaVersion=None),
     "\"schemaVersion\" must be 1, got null"),
    ({"categories": {"C": dict(CHAIN2,
                               composition=CHAIN2["composition"][:-1])}},
     "C: the composition table names no morphism for id_y:y->y after "
     "f:x->y"),
    ({"categories": {"C": CHAIN2},
      "profunctors": {"H": dict(HOM, dAction=HOM["dAction"][:-1])}},
     "H: no D-action of f on 'id_y' over 'y'"),
    ({"categories": {"C": without(CHAIN2, "objects")}},
     "invalid tables: category 'C': no \"objects\"\n"),
    ({"categories": {"C": without(CHAIN2, "identities")}},
     "invalid tables: category 'C': no \"identities\"\n"),
    ({"categories": {"C": CHAIN2},
      "profunctors": {"H": without(HOM, "table")}},
     "invalid tables: profunctor 'H': no \"table\"\n"),
    ({"profunctors": {"H": HOM}},
     "invalid tables: profunctor 'H': \"src\" names no category 'C'\n"),
    (dict(TABLES, compose=["H", "K"]),
     "invalid tables: \"compose\" names no profunctor 'K'\n"),
    ({"categories": {"C": dict(CHAIN2, identities={"x": "nope",
                                                    "y": "id_y"})}},
     "invalid tables: C: the identity of 'x' names no morphism: 'nope'\n"),
], ids=["top-level-list", "categories-list", "two-entry-row",
        "string-morphism", "three-name-compose", "int-morphisms",
        "int-objects", "int-table-row", "string-elements", "version-2",
        "version-string", "version-float", "version-true", "version-null",
        "missing-composite", "missing-action", "missing-objects",
        "missing-identities", "missing-table", "unknown-category",
        "unknown-profunctor", "unknown-identity"])
def test_check_coend_malformed_tables(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-coend", "--file", str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("objects, identities", [
    ([0], {"0": "id0"}), ([1.5], {"1.5": "id0"}), ([True], {"true": "id0"}),
    ([None], {"null": "id0"})], ids=["int", "float", "bool", "null"])
def test_check_coend_rejects_objects_that_are_not_strings(
        tmp_path, capsys, objects, identities):
    # JSON keys are strings, so "identities" could never name the
    # identity of such an object; before, this read "no identity for 0"
    category = {"objects": objects,
                "morphisms": [{"name": "id0", "src": objects[0],
                               "tgt": objects[0]}],
                "identities": identities,
                "composition": [["id0", "id0", "id0"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"categories": {"C": category}}))
    code, out, err = run(capsys, "check-coend", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == ("invalid tables: category 'C': every object must be a "
                   "string, since the keys of \"identities\" name objects "
                   "and JSON keys are strings\n")
    # the same category with its object named by a string loads
    name = next(iter(identities))
    category.update(objects=[name], morphisms=[
        {"name": "id0", "src": name, "tgt": name}])
    path.write_text(json.dumps({"categories": {"C": category}}))
    code, out, _ = run(capsys, "check-coend", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["categories"] == {"C": 1}


POINT = {"objects": ["x"],
         "morphisms": [{"name": "id_x", "src": "x", "tgt": "x"}],
         "identities": {"x": "id_x"},
         "composition": [["id_x", "id_x", "id_x"]]}


def point_tables(cells: list) -> dict:
    """One-object C and an endo-profunctor H on it whose cells are
    ``cells``, each element fixed by the identity; H composed with H."""
    elements = sorted({x for cell in cells for x in cell["elements"]
                       if cell["d"] == cell["c"] == "x"})
    fixed = lambda side: [{"morphism": "id_x", side: "x", "element": x,
                           "to": x} for x in elements]
    return {"schemaVersion": 1, "categories": {"C": POINT},
            "profunctors": {"H": {"src": "C", "tgt": "C", "table": cells,
                                  "cAction": fixed("d"),
                                  "dAction": fixed("c")}},
            "compose": ["H", "H"]}


@pytest.mark.parametrize("data, message", [
    (point_tables([{"d": "x", "c": "x", "elements": ["e"]},
                   {"d": "ghost", "c": "x", "elements": ["g1", "g2"]}]),
     "H: cell ('ghost', 'x') is not over an object of C and an object "
     "of C"),
    (point_tables([{"d": "x", "c": "x", "elements": ["e", "e"]}]),
     "H: cell ('x', 'x') lists 'e' twice"),
    ({"categories": {"C": dict(POINT, objects=["x", "x"])}},
     "duplicate objects"),
], ids=["unknown-object", "repeated-element", "repeated-object"])
def test_check_coend_rejects_cells_that_miscount(tmp_path, capsys, data,
                                                 message):
    # each would otherwise be counted into the sizes that check-coend
    # reports
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-coend", "--file", str(path))
    assert (code, out, err) == (2, "", f"invalid tables: {message}\n")
    fine = point_tables([{"d": "x", "c": "x", "elements": ["e", "f"]}])
    path.write_text(json.dumps(fine))
    code, out, _ = run(capsys, "check-coend", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["profunctors"]["H"] == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


def json_paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_tables(draw):
    """The valid tables with one position replaced or deleted."""
    doc = json.loads(json.dumps(TABLES))
    path = draw(st.sampled_from(list(json_paths(TABLES))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return doc


COMPOSITES = {"ring": ring_theory, "ps-monoid": ps_monoid_theory}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theory=st.sampled_from(sorted(COMPOSITES)),
       text=st.text(alphabet="ab+-*^()0123456789,", max_size=30))
def test_factorize_fuzz_recomposes(capsys, theory, text):
    code, out, err = run(capsys, "factorize", "--theory", theory,
                         f"--morphism={text}", "--json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        spec = COMPOSITES[theory]()
        data = json.loads(out)
        left = morphism_from_json(data["left"], spec)
        right = morphism_from_json(data["right"], spec)
        assert compose(right, left) == morphism(
            spec, 3, [parse_term(s, spec, 3) for s in text.split(",")])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theory=st.sampled_from(sorted(COMPOSITES)),
       arity=st.integers(0, 2), size=st.integers(0, 3))
def test_check_fs_fuzz_exits_cleanly(capsys, theory, arity, size):
    code, out, err = run(capsys, "check-fs", "--theory", theory,
                         "--arity", str(arity), "--size", str(size),
                         "--json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["failures"] == []


THEORIES = {**BASE_THEORIES, **{name: make() for name, make in
                                 COMPOSITES.items()}}
TERMS = st.text(alphabet="abc+-*^()0123456789,", max_size=16)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theory=st.sampled_from(sorted(THEORIES) + ["group"]),
       source=st.integers(0, 3), first=TERMS, second=TERMS)
def test_compose_fuzz_exits_cleanly(capsys, theory, source, first, second):
    code, out, err = run(capsys, "compose", "--theory", theory,
                         "--source", str(source), f"--first={first}",
                         f"--second={second}", "--json")
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")
    if code == 0:
        # the printed composite parses back to the composite
        spec = THEORIES[theory]
        f = morphism(spec, source, [parse_term(s, spec, source)
                                    for s in first.split(",")])
        g = morphism(spec, f.target, [parse_term(s, spec, f.target)
                                      for s in second.split(",")])
        assert morphism_from_json(json.loads(out)["composite"],
                                  spec) == compose(g, f)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theory=st.sampled_from(sorted(THEORIES) + ["group"]),
       arity=st.integers(0, 4), size=st.integers(0, 6))
def test_enumerate_fuzz_exits_cleanly(capsys, theory, arity, size):
    code, out, err = run(capsys, "enumerate", "--theory", theory,
                         "--arity", str(arity), "--size", str(size),
                         "--json")
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (theory in THEORIES)
    if code == 0:
        # every printed normal form parses back to itself
        spec = THEORIES[theory]
        texts = json.loads(out)["terms"]
        assert [parse_term(t, spec, arity) for t in texts] == \
            spec.enumerate_normal(arity, size)


def mostly(valid, junk):
    """Three draws in four from ``valid``, so that most runs get past
    option parsing while every option is sometimes junk."""
    return st.integers(0, 3).flatmap(lambda i: junk if i == 3 else valid)


def option_value(lo, hi):
    """A small integer, or text that is no integer."""
    return mostly(st.integers(lo, hi).map(str),
                  st.text(alphabet="-+x. e", max_size=3))


def name_value(names):
    return mostly(st.sampled_from(sorted(names)),
                  st.text(alphabet="abcgilnoprst3-", max_size=6))


def assert_exits_cleanly(capsys, *argv):
    """Exit 0 with a JSON report, or 2 with a message; never a traceback.
    Returns the report."""
    code, out, err = run(capsys, *argv, "--json")
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")
    return json.loads(out) if code == 0 else None


# Small --samples and --size keep each run well under a second.  The
# examples are derandomized: a few seeds draw a canonical sum deeper than
# the recursion limit even at two samples (check-yb --seed 750 --samples
# 2 ends in RecursionError, ROADMAP item 1), and Tier-1 must not pass or
# fail by the luck of the draw.
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(law=name_value(BUILTIN_LAWS), seed=option_value(-10 ** 6, 10 ** 6),
       samples=option_value(0, 3))
def test_check_law_fuzz_exits_cleanly(capsys, law, seed, samples):
    assert_exits_cleanly(capsys, "check-law", f"--law={law}",
                         f"--seed={seed}", f"--samples={samples}")


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(series=name_value(BUILTIN_SERIES), seed=option_value(-10 ** 6, 10 ** 6),
       samples=option_value(0, 2))
def test_check_yb_fuzz_exits_cleanly(capsys, series, seed, samples):
    assert_exits_cleanly(capsys, "check-yb", f"--series={series}",
                         f"--seed={seed}", f"--samples={samples}")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(law=name_value(BUILTIN_LAWS), size=option_value(0, 5),
       seed=option_value(-10 ** 6, 10 ** 6), samples=option_value(0, 3))
def test_correspond_fuzz_exits_cleanly(capsys, law, size, seed, samples):
    assert_exits_cleanly(capsys, "correspond", f"--law={law}",
                         f"--size={size}", f"--seed={seed}",
                         f"--samples={samples}")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(monad=name_value(FRAGMENTS), bound=option_value(0, 2),
       size=option_value(0, 3))
def test_roundtrip_fuzz_exits_cleanly(capsys, monad, bound, size):
    rep = assert_exits_cleanly(capsys, "roundtrip", f"--monad={monad}",
                               f"--bound={bound}", f"--size={size}")
    if rep is not None:
        assert rep["failures"] == []


@pytest.mark.parametrize("argv", [
    ("factorize", "--theory=--", "--morphism", "a"),
    ("factorize", "--theory", "ring", "--morphism=--"),
    ("check-law", "--law=--"),
    ("compose", "--theory", "monoid", "--source", "1", "--first=--",
     "--second", "a"),
], ids=["factorize-theory", "factorize-morphism", "check-law-law",
        "compose-first"])
def test_a_double_dash_value_exits_two(capsys, argv):
    # argparse drops the value "--" and stores an empty list
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "expected one argument" in err


def test_check_coend_missing_schema_version_reads_as_current(tmp_path,
                                                             capsys):
    tables = {k: v for k, v in TABLES.items() if k != "schemaVersion"}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    code, out, _ = run(capsys, "check-coend", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["composite"]["size"] == 3


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=JSON | mutated_tables())
def test_check_coend_fuzz_exits_zero_or_two(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-coend", "--file", str(path))
    assert code in (0, 2)
    assert (code == 0) == (err == "")


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered):
    # the reader is gone before the report is written, as with `| head`
    # once head has its lines; the read end is closed before the start.
    # Unbuffered, the report's print fails; buffered, the flush after it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LAWVERE_SAMPLES", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lawvere", "check-law", "--law", "ring",
             "--samples", "2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_help_into_a_closed_stdout_exits_141_without_a_traceback():
    # with stdout buffered, as by default, argparse's help waits in the
    # buffer; the pipe error comes only with the flush after the parse
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lawvere", "--help"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_a_closed_stdout_leaves_no_descriptor_open_after_main():
    # main called in process: the devnull descriptor it points stdout at
    # is closed again, so the lowest free descriptor is the same after
    script = """
import json, os, sys
from lawvere.cli import main
def lowest_free():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd
before = lowest_free()
codes = [main(["check-law", "--law", "ring", "--samples", "2", "--json"])
         for _ in range(2)]
print(json.dumps([codes, before, lowest_free()]), file=sys.stderr)
"""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LAWVERE_SAMPLES", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stderr)
    # the second report goes to devnull: its reader is gone for good
    assert codes == [141, 0]
    assert before == after


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LAWVERE_SAMPLES", None)
    proc = subprocess.run(
        [sys.executable, "-m", "lawvere", "enumerate", "--theory", "monoid",
         "--arity", "1", "--size", "3", "--json"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 3
