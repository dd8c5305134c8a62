import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvdomains
from bvdomains import builders, cli, duals, spaces
from bvdomains.cli import (
    SpecError,
    _json_text,
    main,
    parse_domain_spec,
    parse_matrix_spec,
    parse_seq_spec,
)
from bvdomains.core import InvalidWeightsError, _coprime


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_seq_shorthand_and_json():
    e, spec = parse_seq_spec("e")
    assert e(0) == 1 and e(100) == 1
    assert spec["tail"] == {"kind": "const", "c": "1"}
    x, spec = parse_seq_spec('{"prefix": ["1", "-1/2"], "tail": {"kind": "zero"}}')
    assert [x(k) for k in range(3)] == [F(1), F(-1, 2), F(0)]
    assert x.support_bound == 1
    g, spec = parse_seq_spec('{"tail": {"kind": "geometric", "r": "-1/3"}}')
    assert g(2) == F(1, 9)
    p, spec = parse_seq_spec('{"tail": {"kind": "power", "p": 2}}')
    assert p(3) == F(1, 16)


def test_parse_seq_spec_errors():
    with pytest.raises(SpecError):
        parse_seq_spec("nonsense")
    with pytest.raises(SpecError):
        parse_seq_spec('{"tail": {"kind": "cubic"}}')
    with pytest.raises(SpecError):
        parse_seq_spec('{"prefix": ["1/0"]}')
    with pytest.raises(SpecError):
        parse_seq_spec('{"prefix": ["abc"]}')


def test_parse_matrix_spec_variants():
    m, spec = parse_matrix_spec("cesaro")
    assert m.entry(3, 0) == F(1, 4)
    inv, spec = parse_matrix_spec("inverse_of(phi)")
    assert spec == {"kind": "inverse_of", "of": {"kind": "phi"}}
    assert inv.entry(2, 2) == 3
    comp, spec = parse_matrix_spec('{"kind": "compose", "of": [{"kind": "delta"}, {"kind": "cesaro"}]}')
    phi, _ = parse_matrix_spec("phi")
    assert comp.entry(2, 1) == phi.entry(2, 1)
    banded, spec = parse_matrix_spec('{"kind": "banded", "rows": [["1", "2"]]}')
    assert banded.entry(0, 1) == 2
    assert spec["rows"] == [["1", "2"]]
    weighted, _ = parse_matrix_spec(
        '{"kind": "gamma", "u": {"tail": {"kind": "harmonic"}}, "v": "e"}'
    )
    assert weighted.entry(0, 0) == 1


def test_parse_matrix_spec_errors():
    with pytest.raises(SpecError):
        parse_matrix_spec("hilbert")
    with pytest.raises(SpecError):
        parse_matrix_spec('{"kind": "inverse_of", "of": {"kind": "banded", "rows": [["1"]]}}')
    with pytest.raises(SpecError):
        parse_matrix_spec('{"kind": "banded", "rows": []}')


@pytest.mark.parametrize(
    "words,objects",
    [
        ('{"kind": "compose", "of": ["delta", "cesaro"]}', '{"kind": "compose", "of": [{"kind": "delta"}, {"kind": "cesaro"}]}'),
        ('{"kind": "inverse_of", "of": "phi"}', '{"kind": "inverse_of", "of": {"kind": "phi"}}'),
        ("inverse_of(inverse_of(phi))", '{"kind": "inverse_of", "of": {"kind": "inverse_of", "of": {"kind": "phi"}}}'),
        ('{"kind": "compose", "of": ["inverse_of(phi)", "sum"]}',
         '{"kind": "compose", "of": [{"kind": "inverse_of", "of": {"kind": "phi"}}, {"kind": "sum"}]}'),
    ],
)
def test_a_nested_matrix_word_prints_what_its_object_does(capsys, words, objects):
    """A shorthand word means the same at every level of a matrix spec."""
    for command in (["matrix", "--n", "5"], ["transform", "--x", "harmonic", "--n", "5"]):
        flag = "--spec" if command[0] == "matrix" else "--matrix"
        got = run_cli(capsys, *command, flag, words)
        assert got[0] == 0 and got == run_cli(capsys, *command, flag, objects)


def test_an_unknown_nested_matrix_word_is_named(capsys):
    for spec in ('{"kind": "compose", "of": ["delta", "hilbert"]}', '{"kind": "inverse_of", "of": "hilbert"}'):
        assert run_cli(capsys, "matrix", "--spec", spec, "--n", "3") == (2, "", "error: unknown matrix kind 'hilbert'\n")


def test_a_missing_inverse_of_operand_is_named(capsys):
    """An inverse_of spec without 'of' names the key; an explicit empty one
    is a matrix spec with no kind, and the shorthand is unchanged."""
    argv = ["matrix", "--n", "3", "--spec"]
    assert run_cli(capsys, *argv, '{"kind": "inverse_of"}') == (2, "", "error: inverse_of spec requires 'of'\n")
    empty = run_cli(capsys, *argv, '{"kind": "inverse_of", "of": {}}')
    assert empty == (2, "", "error: matrix spec must be an object with a 'kind' field\n")
    assert run_cli(capsys, *argv, "inverse_of(phi)") == run_cli(capsys, *argv, '{"kind": "inverse_of", "of": "phi"}')
    assert run_cli(capsys, *argv, "inverse_of(phi)")[0] == 0


def test_parse_domain_spec():
    dom, spec = parse_domain_spec("C")
    assert dom.label == "C" and spec == {"label": "C"}
    dom, spec = parse_domain_spec('{"label": "R", "q": {"tail": {"kind": "const", "c": "1"}}}')
    assert dom.label == "R"
    with pytest.raises(SpecError):
        parse_domain_spec("Z")


# every matrix kind and domain label of cli's tables with its weight fields
_WEIGHT_FIELDS = {name: fields for table in (cli._MATRICES, cli._DOMAINS) for name, (_, fields) in table.items() if fields}


@pytest.mark.parametrize(
    "kind,field", [(kind, field) for kind, fields in _WEIGHT_FIELDS.items() for field in fields]
)
def test_a_missing_weight_field_is_named(capsys, kind, field):
    """A weighted or Riesz spec or domain without one of its weight fields
    names the field; an explicit empty one is an unknown shorthand."""

    def argv(fields):
        if kind in cli._DOMAINS:
            domain = json.dumps({"label": kind, **fields})
            return ["dual", "--a", "e", "--domain", domain, "--kind", "beta", "--n", "4"]
        return ["matrix", "--spec", json.dumps({"kind": kind, **fields}), "--n", "4"]

    owner = f"{kind} domain" if kind in cli._DOMAINS else f"{kind} spec"
    present = {other: "harmonic" for other in _WEIGHT_FIELDS[kind] if other != field}
    assert run_cli(capsys, *argv(present)) == (2, "", f"error: {owner} requires '{field}'\n")
    empty = run_cli(capsys, *argv({**present, field: ""}))
    assert empty == (2, "", "error: unknown sequence shorthand ''\n")


_P2 = {"tail": {"kind": "power", "p": 2}}
# each spec object with one key its kind does not read, in the flag of a
# command that reads it, that key, where it is named, and the spec without it
_UNKNOWN_KEYS = [
    ("transform --matrix phi --x", {"kind": "power", "p": 2}, "kind", "sequence spec", _P2),
    ("transform --matrix phi --x", {"tail": {"kind": "power", "q": 3}}, "q", "power tail", _P2),
    ("transform --matrix phi --x", {"tail": {"kind": "const", "p": 2}}, "p", "const tail", {"tail": "const"}),
    ("transform --matrix phi --x", {"tail": "zero", "suffix": []}, "suffix", "sequence spec", {"tail": "zero"}),
    ("matrix --spec", {"kind": "cesaro", "q": "harmonic"}, "q", "cesaro spec", {"kind": "cesaro"}),
    ("matrix --spec", {"kind": "riesz", "q": {"tail": "harmonic", "r": "2"}}, "r", "sequence spec", {"kind": "riesz", "q": "e"}),
    ("matrix --spec", {"kind": "gamma", "u": "e", "v": "e", "q": "e"}, "q", "gamma spec", {"kind": "gamma", "u": "e", "v": "e"}),
    ("matrix --spec", {"kind": "inverse_of", "of": "phi", "rows": []}, "rows", "inverse_of spec", {"kind": "inverse_of", "of": "phi"}),
    ("matrix --spec", {"kind": "compose", "of": ["delta", {"kind": "sum", "of": "phi"}]}, "of", "sum spec", {"kind": "compose", "of": ["delta", "sum"]}),
    ("matrix --spec", {"kind": "banded", "rows": [["1"]], "band": 0}, "band", "banded spec", {"kind": "banded", "rows": [["1"]]}),
    ("dual --a e --kind beta --domain", {"label": "C", "q": "harmonic"}, "q", "C domain", {"label": "C"}),
    ("dual --a e --kind beta --domain", {"label": "G", "u": "e", "v": "e", "kind": "G"}, "kind", "G domain", {"label": "G", "u": "e", "v": "e"}),
    ("dual --a e --kind beta --domain", {"label": "R", "q": "e", "u": "e"}, "u", "R domain", {"label": "R", "q": "e"}),
]


@pytest.mark.parametrize("command, spec, key, where, known", _UNKNOWN_KEYS)
def test_an_unknown_key_is_a_usage_error_that_names_it(capsys, command, spec, key, where, known):
    """A key that the spec object's kind does not read exits 2 with one
    line naming the key and the object, where it used to be dropped and the
    command run on another input; without that key the command runs."""
    argv = [*command.split(), json.dumps(spec), "--n", "8"]
    assert run_cli(capsys, *argv) == (2, "", f"error: unknown key {key!r} in {where}\n")
    assert run_cli(capsys, *argv[:-3], json.dumps(known), "--n", "8")[0] == 0


_SEQ_FLAG = "membership --space l1 --x"
_MATRIX_FLAG = "matrix --spec"
_DOMAIN_FLAG = "dual --a e --kind beta --domain"
_TAIL_KINDS = "('zero', 'const', 'harmonic', 'power', 'geometric', 'unit')"
_DEEP = '{"kind": "delta"}'
for _ in range(33):
    _DEEP = '{"kind": "inverse_of", "of": %s}' % _DEEP
# every usage error of spec parsing, each as a flag, its spec and the one
# stderr line it gives
_SPEC_ERRORS = [
    (_SEQ_FLAG, '{"tail": }', "bad sequence spec JSON at position 9: Expecting value"),
    (_DOMAIN_FLAG, "[" * 5000, "domain spec JSON is nested too deeply"),
    (_MATRIX_FLAG, '{"kind": "banded", "rows": [[%s]]}' % ("1" * 5000), "matrix spec JSON has a number longer than 256 characters"),
    (_SEQ_FLAG, '{"prefix": ["1e300"]}', "rational literal in prefix is longer than 256 characters or has an exponent beyond 256"),
    (_SEQ_FLAG, '{"prefix": ["abc"]}', "bad rational in prefix: Invalid literal for Fraction: 'abc'"),
    (_SEQ_FLAG, '{"tail": {"kind": "geometric", "r": 0.5}}', "bad rational in geometric tail r: not an exact rational: 0.5"),
    (_SEQ_FLAG, '{"prefix": "12"}', "prefix must be a list of rationals"),
    (_MATRIX_FLAG, '{"kind": "banded", "rows": ["1"]}', "banded rows must be a list of rationals"),
    (_SEQ_FLAG, '{"tail": {"kind": "power", "p": 65}}', "power tail p must be an integer in [1, 64], got 65"),
    (_SEQ_FLAG, '{"tail": {"kind": "unit", "j": -1}}', "unit tail j must be an integer in [0, inf], got -1"),
    (_SEQ_FLAG, '{"tail": {"kind": "zero", "j": 1}}', "unknown key 'j' in zero tail"),
    (_SEQ_FLAG, "nonsense", "unknown sequence shorthand 'nonsense'"),
    (_SEQ_FLAG, "[1]", "sequence spec must be an object or shorthand word"),
    (_SEQ_FLAG, '{"tail": 7}', "sequence tail must be an object or kind word"),
    (_SEQ_FLAG, '{"tail": "cubic"}', f"unknown tail kind 'cubic'; choose from {_TAIL_KINDS}"),
    (_SEQ_FLAG, '{"tail": {"kind": ["const"]}}', f"unknown tail kind ['const']; choose from {_TAIL_KINDS}"),
    # a missing weight is named before a key that its object does not read
    (_MATRIX_FLAG, '{"kind": "weighted", "u": "e", "w": "e"}', "weighted spec requires 'v'"),
    (_MATRIX_FLAG, '{"kind": "sigma_riesz", "r": "e"}', "sigma_riesz spec requires 'q'"),
    (_DOMAIN_FLAG, '{"label": "G", "v": "e", "w": "e"}', "G domain requires 'u'"),
    (_MATRIX_FLAG, _DEEP, "matrix spec nests deeper than 32 levels"),
    (_MATRIX_FLAG, '{"kind": ["delta"]}', "matrix spec must be an object with a 'kind' field"),
    (_MATRIX_FLAG, "[]", "matrix spec must be an object with a 'kind' field"),
    (_MATRIX_FLAG, '{"kind": "inverse_of"}', "inverse_of spec requires 'of'"),
    (_MATRIX_FLAG, '{"kind": "inverse_of", "of": {"kind": "banded", "rows": [["1"]]}}', "inverse_of requires a triangle with nonzero diagonal"),
    (_MATRIX_FLAG, '{"kind": "compose", "of": ["delta"]}', "compose requires a list of at least two triangle specs"),
    (_MATRIX_FLAG, '{"kind": "compose", "of": "delta"}', "compose requires a list of at least two triangle specs"),
    (_MATRIX_FLAG, '{"kind": "compose", "of": ["delta", {"kind": "banded", "rows": [["1"]]}]}', "compose requires a list of at least two triangle specs"),
    (_MATRIX_FLAG, '{"kind": "banded", "rows": []}', "banded spec requires a nonempty 'rows' list"),
    (_MATRIX_FLAG, "hilbert", "unknown matrix kind 'hilbert'"),
    (_DOMAIN_FLAG, "[1]", "domain spec must be an object or a label"),
    (_DOMAIN_FLAG, "Z", "unknown domain label 'Z'; choose C, G, or R"),
    (_DOMAIN_FLAG, '{"label": ["C"]}', "unknown domain label ['C']; choose C, G, or R"),
    (_DOMAIN_FLAG, '{"label": {"label": "C"}}', "unknown domain label {'label': 'C'}; choose C, G, or R"),
]


@pytest.mark.parametrize("flag, spec, message", _SPEC_ERRORS)
def test_every_spec_error_prints_its_one_line(capsys, flag, spec, message):
    """Each way a spec fails to parse exits 2 with its own stderr line, also
    where a kind or label is a list or an object, which no table holds."""
    assert run_cli(capsys, *flag.split(), spec, "--n", "4") == (2, "", f"error: {message}\n")


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_section(title):
    start = _README.index(f"\n## {title}\n")
    return _README[start : _README.index("\n## ", start + 1)]


def test_the_readme_names_every_kind_and_field_of_the_spec_tables():
    section = _readme_section("Spec grammar")
    names = [*cli._TAILS, *cli._MATRICES, *cli._DOMAINS, *cli._SEQ_SHORTHAND, "inverse_of", "compose", "banded"]
    names += [name for fields, _, _ in cli._TAILS.values() for name, _, _ in fields]
    names += [field for fields in _WEIGHT_FIELDS.values() for field in fields]
    assert [name for name in names if f"`{name}`" not in section] == []


def _assert_canonical(value, expected: F):
    """value is the Fraction that the constructor makes for expected: the
    same reduced pair, q > 0, so it compares, hashes and prints as one."""
    p, q = value.as_integer_ratio()
    assert (p, q) == (expected.numerator, expected.denominator)
    assert q > 0 and math.gcd(p, q) == 1
    assert value == expected and hash(value) == hash(expected)
    try:
        text = str(expected)
    except ValueError:  # more digits than int-to-str conversion allows
        with pytest.raises(ValueError):
            spaces.fmt(value)
    else:
        assert spaces.fmt(value) == text


def test_a_value_not_in_lowest_terms_is_not_canonical():
    # what a leaf made by _coprime from an unreduced pair would be
    for value, expected in ((_coprime(0, 8), F(0)), (_coprime(2, 4), F(1, 2))):
        assert value != expected or spaces.fmt(value) != str(expected)
        with pytest.raises(AssertionError):
            _assert_canonical(value, expected)


# each tail kind's field values and the Fraction its term is at k; r is a
# geometric ratio of either sign, 0 and beyond 1
_RATIOS = ["0", "1", "-1", "-1/3", "2", "7/5", "1e3"]
_TAIL_TERMS = {
    "zero": (st.just({}), lambda k: F(0)),
    "const": (st.fixed_dictionaries({"c": st.sampled_from(_RATIOS)}), lambda k, c: F(c)),
    "harmonic": (st.just({}), lambda k: F(1, k + 1)),
    "power": (st.fixed_dictionaries({"p": st.integers(1, cli.MAX_POWER)}), lambda k, p: F(1, (k + 1) ** p)),
    "geometric": (st.fixed_dictionaries({"r": st.sampled_from(_RATIOS)}), lambda k, r: F(r) ** k),
    "unit": (st.fixed_dictionaries({"j": st.integers(0, 300)}), lambda k, j: F(int(k == j))),
}


def test_the_tail_terms_drawn_are_every_kind_of_the_table():
    assert sorted(_TAIL_TERMS) == sorted(cli._TAILS)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_TAIL_TERMS)).flatmap(lambda kind: st.tuples(st.just(kind), _TAIL_TERMS[kind][0])),
    st.integers(0, 300),
)
def test_every_tail_term_and_mean_weight_is_the_fraction_the_constructor_makes(tail, k):
    kind, fields = tail
    x, _ = parse_seq_spec(json.dumps({"tail": {"kind": kind, **fields}}))
    terms = [_TAIL_TERMS[kind][1](j, *fields.values()) for j in range(k + 1)]
    _assert_canonical(x(k), terms[k])
    mean = builders.cesaro()
    [(weight, _)], _ = mean.structure
    _assert_canonical(weight(k), F(1, k + 1))
    _assert_canonical(mean.entry(k, k // 2), F(1, k + 1))
    # a tail with no nonpositive term is a valid Riesz weight; u_k = 1/Q_k
    if min(terms) > 0:
        _assert_canonical(builders.RieszWeights(x).u_at(k), 1 / sum(terms, F(0)))


_README_COMMANDS = _readme_section("CLI").split("```sh\n")[1].split("```")[0].replace("\\\n", " ").splitlines()


@pytest.mark.parametrize("command", _README_COMMANDS)
def test_every_readme_cli_example_exits_0(capsys, command):
    program, *argv = shlex.split(command)
    assert program == "bvdomains"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_an_empty_membership_domain_is_a_usage_error(capsys):
    """An empty --domain is refused as an empty matrix spec is, where it
    used to test x itself as if no --domain were given."""
    argv = ["membership", "--x", "e", "--space", "l1", "--n", "8"]
    for empty in ("", " "):
        assert run_cli(capsys, *argv, "--domain", empty) == (2, "", "error: unknown matrix kind ''\n")
    assert run_cli(capsys, *argv)[0] == 0


def test_matrix_csv_output(capsys):
    code, out, err = run_cli(capsys, "matrix", "--spec", "cesaro", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "1,0,0\n1/2,1/2,0\n1/3,1/3,1/3\n"


def test_matrix_json_output(capsys):
    code, out, err = run_cli(capsys, "matrix", "--spec", "delta", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "matrix"
    assert doc["spec"] == {"kind": "delta"}
    assert doc["entries"] == [["1", "0"], ["-1", "1"]]


def test_transform_output(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--matrix", "phi", "--x", "e", "--n", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coordinates"] == ["1", "0", "0", "0"]


def test_membership_command(capsys):
    code, out, err = run_cli(
        capsys,
        "membership",
        "--x", '{"tail": {"kind": "geometric", "r": "-1"}}',
        "--space", "bv",
        "--n", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "likely_out"


def test_membership_with_domain(capsys):
    code, out, err = run_cli(
        capsys,
        "membership",
        "--x", "e",
        "--space", "l1",
        "--domain", "phi",
        "--n", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "likely_in"


def test_dual_command(capsys):
    code, out, err = run_cli(
        capsys,
        "dual",
        "--a", '{"prefix": ["1", "2"], "tail": "zero"}',
        "--domain", "C",
        "--kind", "beta",
        "--n", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "certified_in"


def test_matclass_command(capsys):
    code, out, err = run_cli(
        capsys,
        "matclass",
        "--direction", "from_domain",
        "--matrix", '{"kind": "banded", "rows": [["1", "1"]]}',
        "--domain", "C",
        "--y", "linf",
        "--n", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["direction"] == "from_bv_domain"


def test_matclass_requires_banded_for_from_direction(capsys):
    code, out, err = run_cli(
        capsys,
        "matclass",
        "--direction", "from_domain",
        "--matrix", "cesaro",
        "--domain", "C",
        "--y", "linf",
    )
    assert code == 2
    assert "banded" in err


def test_exit_code_usage_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "matrix", "--spec", "hilbert")
    assert code == 2 and "error:" in err
    code, out, err = run_cli(capsys, "matrix", "--spec", "delta", "--n", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "membership", "--x", "e", "--space", "l2")
    assert code == 2
    # malformed spec fields are rejected with one line, never a traceback
    bad_x = [
        '{"tail": {"kind": "const", "c": "abc"}}',
        '{"tail": {"kind": "const", "c": 1.5}}',
        '{"tail": {"kind": "const", "c": "1/0"}}',
        '{"tail": {"kind": "power", "p": "x"}}',
        '{"tail": {"kind": "power", "p": 1000000000}}',
        '{"tail": {"kind": "geometric", "r": "x"}}',
        '{"tail": {"kind": "unit", "j": "x"}}',
        '{"tail": 7}',
        '{"prefix": "12"}',
        # literals and nesting are bounded before any work
        '{"tail": {"kind": "geometric", "r": "1e1000"}}',
        '{"prefix": ["' + "1" * 1000 + '"]}',
        "[" * 5000,
    ]
    cases = [["membership", "--x", x, "--space", "l1", "--n", "8"] for x in bad_x]
    cases.append(["dual", "--a", "e", "--domain", "[1]", "--kind", "beta", "--n", "8"])
    deep = '{"kind": "delta"}'
    for _ in range(400):
        deep = '{"kind": "inverse_of", "of": %s}' % deep
    cases.append(["matrix", "--spec", deep, "--n", "4"])
    # one --n bound for every command, checked before any work
    for command in (
        ["membership", "--x", "e", "--space", "l1"],
        ["dual", "--a", "e", "--domain", "C", "--kind", "beta"],
        ["matclass", "--direction", "into_domain", "--matrix", "delta", "--domain", "C", "--y", "l1"],
        ["verify"],
    ):
        cases.append(command + ["--n", "100000"])
    # results with more digits than Python prints name what to make smaller
    too_long = [
        ["membership", "--x", '{"tail": {"kind": "power", "p": 64}}', "--space", "l1", "--n", "256"],
        ["membership", "--x", '{"tail": {"kind": "geometric", "r": "1e100"}}', "--space", "l1", "--n", "64"],
        ["transform", "--matrix", "sum", "--x", '{"tail": {"kind": "geometric", "r": "1e100"}}', "--n", "64"],
    ]
    # matrix formats its rows one at a time; a row past the limit still
    # fails before anything is written
    too_long += [
        ["matrix", "--spec", _HUGE_WEIGHTED, "--n", "64", "--format", fmt] for fmt in ("json", "csv")
    ]
    # an --out path that cannot be written: a directory, or inside a missing one
    unwritable = [
        ["matrix", "--spec", "cesaro", "--n", "4", "--out", str(out_path)]
        for out_path in (tmp_path, tmp_path / "missing" / "x.json")
    ]
    # usage errors met after the flags parse, each with its own message
    named = {
        ("matrix", "--spec", '{"kind": '): "bad matrix spec JSON at position 8",
        (
            "membership", "--x", "e", "--space", "l1", "--domain", '{"kind":"banded","rows":[["1"]]}',
        ): "membership domain must be a triangle spec",
        ("verify", "--n", "260"): "suite truncation must be <= 256, got 260",
    }
    cases += map(list, named)
    for argv in cases + too_long + unwritable:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        if tuple(argv) in named:
            assert named[tuple(argv)] in err, err
        if argv in too_long:
            assert "--n" in err and "power p" in err and "geometric r" in err, err
        if argv in unwritable:
            assert "--out" in err and argv[-1] in err, err


def test_a_json_number_past_the_int_conversion_limit_is_a_spec_error(capsys):
    """A 5,000-digit JSON integer, past the digits json.loads converts, in a
    matrix, sequence or domain spec exits 2 with one error line that names
    the literal limit, not the interpreter's."""
    huge = "1" * 5000
    cases = [
        ["matrix", "--spec", '{"kind": "banded", "rows": [[%s]]}' % huge, "--n", "4"],
        ["dual", "--a", '{"prefix": [%s]}' % huge, "--domain", "C", "--kind", "beta", "--n", "8"],
        ["dual", "--a", "e", "--domain", '{"label": "R", "q": {"prefix": [%s]}}' % huge, "--kind", "beta", "--n", "8"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "longer than 256 characters" in err and "set_int_max_str_digits" not in err, err


_HUGE_WEIGHTED = json.dumps(
    {"kind": "weighted", "u": {"tail": {"kind": "geometric", "r": "1e100"}}, "v": {"tail": {"kind": "const", "c": "1"}}}
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_matrix_with_too_many_digits_leaves_an_existing_out_file_as_it_was(capsys, tmp_path, fmt):
    existing = tmp_path / "m.txt"
    existing.write_bytes(b"kept\n")
    code, out, err = run_cli(
        capsys, "matrix", "--spec", _HUGE_WEIGHTED, "--n", "64", "--format", fmt, "--out", str(existing)
    )
    assert (code, out) == (2, "") and "too many digits" in err
    assert existing.read_bytes() == b"kept\n"


def test_unwritable_out_fails_before_the_work(capsys, monkeypatch, tmp_path):
    """An --out path that cannot be written is a usage error found before the
    command runs; a writable one is not opened before the work, so a failing
    command leaves an existing file as it was."""

    def no_work(*args):
        raise AssertionError("dual_test ran")

    monkeypatch.setattr(duals, "dual_test", no_work)
    dual = ["dual", "--a", "harmonic", "--domain", "C", "--kind", "beta", "--n", "256"]
    existing = tmp_path / "x.json"
    existing.write_text("kept\n")
    for out_path, reason in (
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (existing / "x.json", "Not a directory"),
        (tmp_path, "Is a directory"),
        ("", "No such file or directory"),
    ):
        code, out, err = run_cli(capsys, *dual, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --out {out_path}: {reason}\n"
    code, out, err = run_cli(
        capsys, "dual", "--a", "nonsense", "--domain", "C", "--kind", "beta", "--out", str(existing)
    )
    assert code == 2 and err.startswith("error: unknown sequence shorthand")
    assert existing.read_text() == "kept\n"


def test_importing_the_cli_loads_no_dataclasses_or_typing():
    """The package builds its records without ``dataclasses`` and writes its
    annotations without ``typing``, so importing the CLI loads neither, nor
    what ``dataclasses`` imports, and the verify suites load only where they
    run.  ``-S`` keeps ``site``'s own imports out."""
    src = str(Path(bvdomains.__file__).resolve().parents[1])
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "bvdomains.verify")
    code = f"import sys, bvdomains.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _cli_process(args, stdout, buffered):
    """bvdomains run as a program on args, writing to stdout, with Python's
    stdout buffered or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "bvdomains.cli", "matrix", "--format", "csv", *args]
    return subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE, env=env)


def _assert_stdout_write_fails(proc, code):
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (2, f"error: cannot write stdout: {os.strerror(code)}\n")


@pytest.mark.parametrize("buffered", [True, False])
def test_a_stdout_pipe_closed_after_a_few_bytes_is_a_usage_error(buffered):
    """The reader of a large output goes away after 10 bytes: the write
    fails, which exits 2 with one error line, no traceback and nothing
    ignored at exit."""
    proc = _cli_process(["--spec", "phi", "--n", "512"], subprocess.PIPE, buffered)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _assert_stdout_write_fails(proc, errno.EPIPE)


@pytest.mark.parametrize("buffered", [True, False])
def test_a_small_stdout_into_a_closed_pipe_is_a_usage_error(buffered):
    """A small output fits the buffer, so a buffered write succeeds and
    the closed pipe shows only when stdout is flushed."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(["--spec", "phi", "--n", "2"], write, buffered)
    finally:
        os.close(write)
    _assert_stdout_write_fails(proc, errno.EPIPE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("size", ["2", "512"])
def test_a_full_stdout_is_a_usage_error(size):
    with open("/dev/full", "wb") as full:
        proc = _cli_process(["--spec", "phi", "--n", size], full, True)
    _assert_stdout_write_fails(proc, errno.ENOSPC)


def test_exit_code_mathematical_error(capsys):
    # a weight prefix containing zero makes the mean matrix undefined
    code, out, err = run_cli(
        capsys,
        "matrix",
        "--spec",
        '{"kind": "weighted", "u": {"prefix": ["0"], "tail": "harmonic"}, "v": "e"}',
        "--n", "3",
    )
    assert code == 3
    assert "mathematical error" in err
    code, out, err = run_cli(
        capsys,
        "membership",
        "--x", "e",
        "--space", "l1",
        "--domain",
        '{"kind": "weighted", "u": {"prefix": ["0"], "tail": "harmonic"}, "v": "e"}',
        "--n", "8",
    )
    assert code == 3 and err.startswith("mathematical error:")


def test_matclass_unsupported_class_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "matclass",
        "--direction", "into_domain",
        "--matrix", "delta",
        "--domain", "C",
        "--y", "cs",
        "--n", "16",
    )
    assert code == 3


def test_deterministic_output(capsys):
    argv = ("dual", "--a", "harmonic", "--domain", "C", "--kind", "gamma", "--n", "16")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("matrix", "--spec", '{"kind":"compose","of":[{"kind":"cesaro"},{"kind":"phi"}]}'),
            "27de704fd7dc3d0ddc6a36a6084cb1c8ee6947312c361ef5ab16d0f3e8c4d3a7",
        ),
        (
            ("matclass", "--direction", "into_domain", "--matrix", "inverse_of(phi)")
            + ("--domain", "C", "--y", "l1"),
            "b05a16173ef48aae5f460d8c2196341ff1524defdac48b4cbea88fb13d3a2144",
        ),
    ],
    ids=["compose_cesaro_phi", "into_domain_inverse_phi"],
)
def test_products_by_a_domain_factor_print_as_the_band_overlap_sum_did(capsys, argv, digest):
    # digests of the output when compose took the band-overlap sum for every
    # domain matrix and domain inverse on the right
    code, out, _ = run_cli(capsys, *argv, "--n", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rows_that_share_a_report_share_its_dict(capsys, monkeypatch):
    """The 64 sampled rows of a one-row banded matrix hold 2 report objects,
    row 0's and the zero rows' shared one; each is made a dict once."""
    calls = []
    to_dict = duals.DualReport.to_dict
    monkeypatch.setattr(duals.DualReport, "to_dict", lambda self: calls.append(self) or to_dict(self))
    code, out, _ = run_cli(
        capsys, "matclass", "--direction", "from_domain", "--matrix", '{"kind":"banded","rows":[["1","1"]]}',
        "--domain", "C", "--y", "linf", "--n", "256",
    )
    assert code == 0
    assert len(json.loads(out)["report"]["row_dual_checks"]) == 64
    assert len(calls) == len({id(r) for r in calls}) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "af3dfa784993297ebca3421b2858ccbc70d68958d24243a1b4bb457dea00f0d9"
    )


# JSON trees for the writer: escapes, non-ASCII and astral characters, ints
# of over 100 digits, empty and nested containers, tuples, and one object
# met at several places and depths.
_JSON_STRINGS = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'), max_size=6) | st.text(max_size=6)
_JSON_LEAVES = st.one_of(
    _JSON_STRINGS,
    st.integers(-5, 5),
    st.integers(10**100, 10**130),
    st.integers(-(10**130), -(10**100)),
    st.booleans(),
    st.none(),
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    )


@st.composite
def _json_trees(draw):
    shared = draw(st.recursive(_JSON_LEAVES, _json_containers, max_leaves=6))
    tree = draw(st.recursive(_JSON_LEAVES | st.just(shared), _json_containers, max_leaves=12))
    return {"tree": tree, "shared": shared, "deeper": [tree, {"shared": [shared]}], "empty": [[], {}, ()]}


@settings(max_examples=200, deadline=None)
@given(_json_trees())
def test_json_writer_writes_the_bytes_of_json_dumps(tree):
    expected = json.dumps(tree, indent=2, ensure_ascii=True)
    assert _json_text(tree) == expected
    # a generator is written as the list of what it yields, here fresh copies
    # that are garbage once written unless the writer holds them
    rows = (tree["tree"], tree["shared"], tree["tree"])
    expected = json.dumps(rows, indent=2, ensure_ascii=True)
    assert _json_text(copy.deepcopy(row) for row in rows) == expected


def test_json_writer_refuses_a_float_as_json_dumps_does():
    with pytest.raises(TypeError, match="Object of type float is not JSON serializable"):
        _json_text({"a": 1.5})


def test_matrix_round_trip_through_banded_spec(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--spec", "phi", "--n", "4", "--format", "csv")
    rows = [line.split(",") for line in out.strip().split("\n")]
    spec = json.dumps({"kind": "banded", "rows": rows})
    banded, _ = parse_matrix_spec(spec)
    phi, _ = parse_matrix_spec("phi")
    for n in range(4):
        for k in range(n + 1):
            assert banded.entry(n, k) == phi.entry(n, k)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run_cli(
        capsys, "matrix", "--spec", "delta", "--n", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["entries"][1] == ["-1", "1"]


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--n", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["summary"]["failed"] == 0
    assert doc["report"]["suite"] == "identities"


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1/2", "3", "abc", "1/0", ""]),
    st.sampled_from([0.5, 1.5]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
)


# Valid specs of every kind in cli's tables, so that a kind added to a table
# is drawn with no edit here: without them the scalars and unknown kinds
# make almost every drawn command a usage error (exit 2), and the clean-exit
# check would rarely see a command run.  A field's values are the
# candidates that its own parser accepts.
_RATIONALS = ["0", "1", "-1", "2", "1/2", "-2/3", "5/4"]
_CANDIDATES = [*range(-2, 7), *_RATIONALS]


def _accepted(parse):
    def parses(value):
        try:
            parse(value, "field")
        except SpecError:
            return False
        return True

    return st.sampled_from([value for value in _CANDIDATES if parses(value)])


_VALID_TAILS = st.sampled_from(list(cli._TAILS)).flatmap(
    lambda kind: st.just(kind)
    | st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional={name: _accepted(parse) for name, parse, _ in cli._TAILS[kind][0]}
    )
)
# sequences with zeros and sign changes, and the shorthand words
_VALID_SEQS = st.one_of(
    st.sampled_from(list(cli._SEQ_SHORTHAND)),
    st.fixed_dictionaries({}, optional={"prefix": st.lists(st.sampled_from(_RATIONALS), max_size=3), "tail": _VALID_TAILS}),
)
# weights: the sequences, and often the positive ones of the shorthand, so
# that a weighted kind also runs
_VALID_WEIGHTS = st.sampled_from(["e", "harmonic"]) | _VALID_SEQS


def _named(table, key):
    """Valid specs of every entry of a table of cli, which key names: a word
    or an object for an entry with no weight fields."""

    def spec(name):
        weights = table[name][1]
        if not weights:
            return st.sampled_from([name, {key: name}])
        return st.fixed_dictionaries({key: st.just(name), **{field: _VALID_WEIGHTS for field in weights}})

    return st.sampled_from(list(table)).flatmap(spec)


def _inverse_of(m):
    return f"inverse_of({m})" if isinstance(m, str) else {"kind": "inverse_of", "of": m}


# triangles with inverse_of and compose nested up to 3 levels, a named kind
# at each level in half the draws
_VALID_TRIANGLES = _named(cli._MATRICES, "kind")
for _ in range(3):
    _VALID_TRIANGLES = _named(cli._MATRICES, "kind") | st.one_of(
        _VALID_TRIANGLES.map(_inverse_of),
        st.lists(_VALID_TRIANGLES, min_size=2, max_size=3).map(lambda of: {"kind": "compose", "of": of}),
    )
_VALID_MATRICES = st.one_of(
    _VALID_TRIANGLES,
    st.lists(st.lists(st.sampled_from(["1", "-2/3", "0"]), min_size=1, max_size=3), min_size=1, max_size=3).map(
        lambda rows: {"kind": "banded", "rows": rows}
    ),
)
_VALID_DOMAINS = _named(cli._DOMAINS, "label")
_TAILS = st.one_of(
    st.sampled_from([*cli._TAILS, "cubic"]),
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(list(cli._TAILS)), _SCALARS)},
        optional={name: _SCALARS for fields, _, _ in cli._TAILS.values() for name, _, _ in fields},
    ),
    _SCALARS,
)
_SEQS = st.one_of(
    _VALID_SEQS,
    st.sampled_from([*cli._SEQ_SHORTHAND, "nonsense"]),
    st.fixed_dictionaries(
        {}, optional={"prefix": st.one_of(st.lists(_SCALARS, max_size=3), _SCALARS), "tail": _TAILS}
    ),
    _SCALARS,
)
_WEIGHT_KEYS = {field: _SEQS for fields in _WEIGHT_FIELDS.values() for field in fields}
_MATRICES = st.one_of(
    _VALID_MATRICES,
    st.sampled_from([*cli._MATRICES, "inverse_of(phi)", "hilbert"]),
    st.fixed_dictionaries(
        {"kind": st.sampled_from([*(k for k in cli._MATRICES if k in _WEIGHT_FIELDS), "compose", "banded", "inverse_of"])},
        optional={
            **_WEIGHT_KEYS,
            "of": st.one_of(st.lists(st.sampled_from([{"kind": "delta"}, {"kind": "cesaro"}, "x"]), max_size=3), _SCALARS),
            "rows": st.one_of(st.lists(st.lists(_SCALARS, max_size=3), max_size=3), _SCALARS),
        },
    ),
    _SCALARS,
)
_DOMAINS = st.one_of(
    _VALID_DOMAINS,
    st.sampled_from([*cli._DOMAINS, "Z"]),
    st.fixed_dictionaries(
        {"label": st.one_of(st.sampled_from([k for k in cli._DOMAINS if k in _WEIGHT_FIELDS]), _SCALARS)},
        optional=_WEIGHT_KEYS,
    ),
    _SCALARS,
)
# a string spec is passed as it is, so shorthands such as "delta" and "e"
# reach the parser; any other value as its JSON
_spec = lambda v: v if isinstance(v, str) else json.dumps(v)
# the command is drawn first, by sampled_from, so that each command gets a
# share of the examples: a one_of of these strategies draws matrix in about
# three quarters of them
_ARGVS = st.sampled_from([
    st.tuples(st.just("membership"), _SEQS, st.sampled_from(["l1", "bv", "c0"]), st.one_of(st.none(), _MATRICES)).map(
        lambda t: ["membership", f"--x={_spec(t[1])}", "--space", t[2]]
        + ([] if t[3] is None else [f"--domain={_spec(t[3])}"])
    ),
    st.tuples(_SEQS, _DOMAINS, st.sampled_from(["alpha", "beta", "gamma"])).map(
        lambda t: ["dual", f"--a={_spec(t[0])}", f"--domain={_spec(t[1])}", "--kind", t[2]]
    ),
    _MATRICES.map(lambda m: ["matrix", f"--spec={_spec(m)}"]),
    st.tuples(_MATRICES, _SEQS, st.sampled_from(["json", "csv"])).map(
        lambda t: ["transform", f"--matrix={_spec(t[0])}", f"--x={_spec(t[1])}", "--format", t[2]]
    ),
    st.tuples(
        st.sampled_from(["from_domain", "into_domain"]), _MATRICES, _DOMAINS, st.sampled_from(["l1", "c", "linf", "bv"])
    ).map(
        lambda t: ["matclass", "--direction", t[0], f"--matrix={_spec(t[1])}", f"--domain={_spec(t[2])}"]
        + ["--y", t[3]]
    ),
]).flatmap(lambda command: command)


@settings(max_examples=150, deadline=None)
@given(_ARGVS)
def test_fuzz_specs_exit_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--n", "8"])
    assert code in (0, 2, 3)
    assert code == 0 or err.getvalue().count("\n") == 1


# Invalid Riesz weights q and the stderr line each gives; the Riesz mean reads
# u_n = 1/Q_n before v_k = q_k, and every reader goes row by row, so each
# command reports the first invalid index.
_ONES = {"kind": "const", "c": "1"}
_INVALID_Q = [
    ({"prefix": ["1", "0"], "tail": _ONES}, "q[1] = 0"),
    ({"prefix": ["1", "1", "-1", "-1"], "tail": _ONES}, "q[2] = -1"),
    ({"prefix": ["0"], "tail": {"kind": "const", "c": "-1"}}, "q[0] = 0"),
    ({"prefix": ["1"] * 20 + ["-3"], "tail": _ONES}, "q[20] = -3"),
]


def _riesz_commands(q) -> dict:
    riesz = {"kind": "riesz", "q": q}
    sigma = {"kind": "sigma_riesz", "q": q}
    domain = json.dumps({"label": "R", "q": q})
    return {
        "riesz": ["matrix", "--spec", json.dumps(riesz)],
        "cesaro.riesz": ["matrix", "--spec", json.dumps({"kind": "compose", "of": [{"kind": "cesaro"}, riesz]})],
        "riesz.delta": ["matrix", "--spec", json.dumps({"kind": "compose", "of": [riesz, {"kind": "delta"}]})],
        "inverse_of(sigma_riesz)": ["matrix", "--spec", json.dumps({"kind": "inverse_of", "of": sigma})],
        "transform": ["transform", "--matrix", json.dumps(riesz), "--x", "e"],
        "membership": ["membership", "--x", "e", "--space", "l1", "--domain", json.dumps(sigma)],
        **{
            f"dual_{kind}": ["dual", "--a", "e", "--domain", domain, "--kind", kind]
            for kind in ("alpha", "beta", "gamma")
        },
        "matclass_from": ["matclass", "--direction", "from_domain", "--matrix",
                          '{"kind": "banded", "rows": [["1", "1"]]}', "--domain", domain, "--y", "linf"],
        "matclass_into": ["matclass", "--direction", "into_domain", "--matrix", "delta",
                          "--domain", domain, "--y", "l1"],
    }


@pytest.mark.parametrize("command", list(_riesz_commands(None)))
@pytest.mark.parametrize("q,weight", _INVALID_Q, ids=["q1_zero", "q2_q3_negative", "q0_zero_tail_negative", "q20_negative"])
def test_invalid_riesz_weights_exit_3_naming_the_first_invalid_index(capsys, q, weight, command):
    code, out, err = run_cli(capsys, *_riesz_commands(q)[command], "--n", "32")
    assert (code, out) == (3, "")
    assert err == f"mathematical error: invalid weight {weight}: must be positive\n"


@pytest.mark.parametrize("bad", ["0", "-1"])
def test_the_riesz_pair_sums_and_their_oracle_name_the_same_invalid_q(capsys, bad):
    # u_n = 1/Q_n is summed as reduced pairs and big_q, its oracle, as
    # Fractions; each reads q in order, so both stop at q[7], as every
    # command does
    q = {"prefix": ["1"] * 7 + [bad], "tail": "harmonic"}
    line = f"invalid weight q[7] = {bad}: must be positive"
    for read in ("u_at", "big_q"):
        r = builders.RieszWeights(parse_seq_spec(json.dumps(q))[0])
        with pytest.raises(InvalidWeightsError) as info:
            getattr(r, read)(9)
        assert (info.value.name, info.value.index, info.value.value, str(info.value)) == ("q", 7, F(bad), line)
    commands = _riesz_commands(q)
    for command in ("riesz", "dual_alpha", "dual_beta", "dual_gamma"):
        assert run_cli(capsys, *commands[command], "--n", "12") == (3, "", f"mathematical error: {line}\n")
