"""Command-line front end.

Subcommands: matrix, transform, membership, dual, matclass, verify.  Sequence
and matrix specs are JSON; bare words are accepted as shorthand for the
parameterless kinds at any level of a spec (e.g. ``--spec cesaro``,
``--spec "inverse_of(phi)"``, ``{"kind": "compose", "of": ["delta", "phi"]}``).
All rationals are serialized as exact ``p/q`` strings and output is
byte-deterministic for identical invocations.  JSON output is the bytes of
``json.dumps(indent=2, ensure_ascii=True)``, written by one writer
(``_json_text``) that encodes a report shared by many rows once.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 mathematical error (singular matrix, invalid weights, unsupported class).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from types import GeneratorType

from . import VERIFY_SUITES, __version__, builders, duals, matclass, spaces
from .core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    SingularMatrixError,
    Triangle,
    compose,
    invert,
    rat,
    truncate,
)
from .matclass import UnsupportedClassError, apply_general
from .spaces import SpaceId

MAX_TRUNCATION = 4096
# Keeps the power tail's denominators (k+1)^p under 12 * 64 = 768 bits at
# the deepest truncation.
MAX_POWER = 64
# A rational literal has at most this many characters and a decimal exponent
# of at most this magnitude, so parsing it cannot build a huge integer.
MAX_LITERAL = 256
# Matrix specs nest at most this deep (a compose of p parts puts its parts
# p-1 levels down), which keeps spec parsing and entry evaluation far from
# the interpreter's recursion limit.
MAX_SPEC_DEPTH = 32

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)")

_encode_str = json.encoder.encode_basestring_ascii
_JSON_WORDS = {None: "null", True: "true", False: "false"}


class SpecError(ValueError):
    """A malformed sequence/matrix/domain spec (usage error, exit 2)."""


def _load_spec(text: str, what: str):
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"bad {what} JSON at position {exc.pos}: {exc.msg}") from None
        except RecursionError:
            raise SpecError(f"{what} JSON is nested too deeply") from None
        except ValueError:  # an integer of more digits than int() converts
            raise SpecError(f"{what} JSON has a number longer than {MAX_LITERAL} characters") from None
    return text  # shorthand word, resolved by the caller


def _spec_rat(value, what: str) -> Fraction:
    if isinstance(value, (str, int)):
        text = str(value)
        exponent = _EXPONENT.search(text)
        if len(text) > MAX_LITERAL or (
            exponent and int(exponent.group(1).replace("_", "") or "0") > MAX_LITERAL
        ):
            raise SpecError(
                f"rational literal in {what} is longer than {MAX_LITERAL} characters"
                f" or has an exponent beyond {MAX_LITERAL}"
            )
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational in {what}: {exc}") from None


def _spec_rats(values, what: str) -> list:
    if not isinstance(values, list):
        raise SpecError(f"{what} must be a list of rationals")
    return [_spec_rat(v, what) for v in values]


def _checked(raw: dict, resolved: dict, what: str) -> dict:
    """The resolved spec of the spec object raw, once raw holds no key that
    resolved does not echo: a key that its kind does not read is refused."""
    for key in raw:
        if key not in resolved:
            raise SpecError(f"unknown key {key!r} in {what}")
    return resolved


# ------------------------------------------------------------------ grammar
# A spec kind is one table entry with its fields, each (name, parser,
# default) and read in order by _fields; a parser maps a value and the name
# of its field to the parsed value and its echo.


def _fields(raw: dict, fields, owner: str):
    """The values of raw's fields and the resolved spec that echoes them; a
    field with no default is required."""
    values, echo = [], {}
    for name, parse, default in fields:
        if name not in raw and default is None:
            raise SpecError(f"{owner} requires {name!r}")
        value, echo[name] = parse(raw.get(name, default), f"{owner} {name}")
        values.append(value)
    return values, echo


def _rat_field(value, what: str):
    number = _spec_rat(value, what)
    return number, spaces.fmt(number)


def _int_field(lo: int, hi: float = math.inf):
    """The parser of an integer field (JSON int or decimal string) in [lo, hi]."""

    def parse(value, what: str):
        number = None
        if isinstance(value, str):
            try:
                number = int(value)
            except ValueError:
                pass
        elif isinstance(value, int) and not isinstance(value, bool):
            number = value
        if number is None or not lo <= number <= hi:
            raise SpecError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
        return number, number

    return parse


# tail kind -> its fields, the term k -> x(k) made from their values and, for
# a finitely supported tail, its support bound from the prefix length n
_TAILS = {
    "zero": ((), lambda: lambda k: Fraction(0), lambda n: max(n - 1, 0)),
    "const": ((("c", _rat_field, "0"),), lambda c: lambda k: c, None),
    "harmonic": ((), lambda: lambda k: Fraction(1, k + 1), None),
    "power": ((("p", _int_field(1, MAX_POWER), 1),), lambda p: lambda k: Fraction(1, (k + 1) ** p), None),
    "geometric": ((("r", _rat_field, "1/2"),), lambda r: lambda k: r**k, None),
    "unit": ((("j", _int_field(0), 0),), lambda j: lambda k: Fraction(1) if k == j else Fraction(0),
             lambda n, j: max(n - 1, j)),
}

_SEQ_SHORTHAND = {
    "e": {"prefix": [], "tail": {"kind": "const", "c": "1"}},
    "zero": {"prefix": [], "tail": {"kind": "zero"}},
    "harmonic": {"prefix": [], "tail": {"kind": "harmonic"}},
}

# matrix kind or domain label -> its builder and its weight fields, each a
# required sequence; "uv" make the builder's WeightPair, "q" its RieszWeights
_MATRICES = {
    "delta": (builders.delta, ""), "sum": (builders.sigma_sum, ""), "cesaro": (builders.cesaro, ""),
    "cesaro_inv": (builders.cesaro_inverse, ""), "phi": (builders.phi, ""),
    "weighted": (builders.weighted_mean, "uv"), "gamma": (builders.gamma, "uv"),
    "riesz": (builders.riesz, "q"), "sigma_riesz": (builders.sigma_riesz, "q"),
}
_DOMAINS = {"C": (builders.cesaro_domain, ""), "G": (builders.weighted_domain, "uv"), "R": (builders.riesz_domain, "q")}
_WEIGHTS = {"uv": builders.WeightPair, "q": builders.RieszWeights}


def _from_table(raw: dict, key: str, table: dict, owner: str):
    """The object that raw[key] names in table, and its resolved spec."""
    build, weights = table[raw[key]]
    seqs, echo = _fields(raw, [(name, lambda v, _: _seq_from_obj(v), None) for name in weights], owner)
    built = build(_WEIGHTS[weights](*seqs)) if weights else build()
    return built, _checked(raw, {key: raw[key], **echo}, owner)


# ------------------------------------------------------------------ parsers


def parse_seq_spec(text: str):
    """Parse a SeqSpec into (Seq, resolved-spec dict)."""
    return _seq_from_obj(_load_spec(text, "sequence spec"))


def _seq_from_obj(raw):
    if isinstance(raw, str):
        if raw not in _SEQ_SHORTHAND:
            raise SpecError(f"unknown sequence shorthand {raw!r}")
        raw = _SEQ_SHORTHAND[raw]
    if not isinstance(raw, dict):
        raise SpecError("sequence spec must be an object or shorthand word")
    prefix = _spec_rats(raw.get("prefix", []), "prefix")
    tail = raw.get("tail", {"kind": "zero"})
    if isinstance(tail, str):
        tail = {"kind": tail}
    if not isinstance(tail, dict):
        raise SpecError("sequence tail must be an object or kind word")
    kind = tail.get("kind")
    if not isinstance(kind, str) or kind not in _TAILS:
        raise SpecError(f"unknown tail kind {kind!r}; choose from {tuple(_TAILS)}")
    fields, term, support = _TAILS[kind]
    values, echo = _fields(tail, fields, f"{kind} tail")
    tail_fn = term(*values)

    def eval_fn(k: int) -> Fraction:
        if k < len(prefix):
            return prefix[k]
        return tail_fn(k)

    resolved = {"prefix": [spaces.fmt(v) for v in prefix]}
    resolved["tail"] = _checked(tail, {"kind": kind, **echo}, f"{kind} tail")
    bound = support and support(len(prefix), *values)
    return Seq(eval_fn, support_bound=bound), _checked(raw, resolved, "sequence spec")


def parse_matrix_spec(text: str):
    """Parse a MatrixSpec into (matrix, resolved dict); every kind but
    ``banded`` is a Triangle."""
    return _build_matrix(_load_spec(text, "matrix spec"), 0)


def _build_matrix(raw, depth: int):
    if depth > MAX_SPEC_DEPTH:
        raise SpecError(f"matrix spec nests deeper than {MAX_SPEC_DEPTH} levels")
    if isinstance(raw, str):  # a shorthand word, at any level
        if raw.startswith("inverse_of(") and raw.endswith(")"):
            raw = {"kind": "inverse_of", "of": raw[11:-1]}
        else:
            raw = {"kind": raw}
    if not isinstance(raw, dict) or not isinstance(raw.get("kind"), str):
        raise SpecError("matrix spec must be an object with a 'kind' field")
    kind = raw["kind"]
    if kind in _MATRICES:
        return _from_table(raw, "kind", _MATRICES, f"{kind} spec")
    if kind == "inverse_of":
        if "of" not in raw:
            raise SpecError("inverse_of spec requires 'of'")
        inner, inner_spec = _build_matrix(raw["of"], depth + 1)
        if not isinstance(inner, Triangle):
            raise SpecError("inverse_of requires a triangle with nonzero diagonal")
        return invert(inner), _checked(raw, {"kind": "inverse_of", "of": inner_spec}, "inverse_of spec")
    if kind == "compose":
        of = raw.get("of")
        parts = []
        if isinstance(of, list):
            parts = [_build_matrix(p, depth + max(len(of) - 1, 1)) for p in of]
        if len(parts) < 2 or not all(isinstance(m, Triangle) for m, _ in parts):
            raise SpecError("compose requires a list of at least two triangle specs")
        matrix = parts[0][0]
        for m, _ in parts[1:]:
            matrix = compose(matrix, m)
        return matrix, _checked(raw, {"kind": "compose", "of": [s for _, s in parts]}, "compose spec")
    if kind == "banded":
        rows = raw.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SpecError("banded spec requires a nonempty 'rows' list")
        values = [_spec_rats(row, "banded rows") for row in rows]
        text = [[spaces.fmt(v) for v in row] for row in values]
        return BandedMatrix.from_rows(values), _checked(raw, {"kind": "banded", "rows": text}, "banded spec")
    raise SpecError(f"unknown matrix kind {kind!r}")


def parse_domain_spec(text: str):
    """Parse a domain spec ("C", or {"label":"G","u":..,"v":..}, or
    {"label":"R","q":..}) into (Domain, resolved dict)."""
    raw = _load_spec(text, "domain spec")
    if isinstance(raw, str):
        raw = {"label": raw}
    if not isinstance(raw, dict):
        raise SpecError("domain spec must be an object or a label")
    label = raw.get("label")
    if not isinstance(label, str) or label not in _DOMAINS:
        *labels, last = _DOMAINS
        raise SpecError(f"unknown domain label {label!r}; choose {', '.join(labels)}, or {last}")
    return _from_table(raw, "label", _DOMAINS, f"{label} domain")


# ------------------------------------------------------------------- output


def _envelope(command: str, spec: dict, n: int, payload_key: str, payload) -> dict:
    return {
        "tool": "bvdomains",
        "version": __version__,
        "command": command,
        "spec": spec,
        "n": n,
        payload_key: payload,
    }


def _check_out(path: str) -> None:
    """Raise the OSError that writing the --out file would, before any work.

    The file is not opened here, because opening truncates it and a later
    failure would then leave it empty.  An empty path fails as ``open("")``
    does.
    """
    parent = os.path.dirname(path) or "."
    code = None
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT if not os.path.exists(parent) else errno.ENOTDIR
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    if code is not None:
        raise OSError(code, os.strerror(code), path)


def _emit(args, text: str) -> None:
    """Write text and a final newline to --out or stdout.  The newline is
    written on its own, so a large text is not copied to add it.

    stdout is flushed here, so a failed write (a closed pipe, a full disk)
    raises here as an OSError named "stdout".  fd 1 is then pointed at the
    null device, so the interpreter's final flush of what is left in the
    buffer succeeds and prints nothing."""
    end = "" if text.endswith("\n") else "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.write(end)
        sys.stdout.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise OSError(exc.errno, exc.strerror, "stdout") from exc


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, ensure_ascii=True)`` for a
    tree of dicts with string keys, lists, tuples, strings, ints, bools and
    None (the output holds no floats).

    Strings go through ``json``'s own C escaper, and a list of strings is
    one join of its items.  Any other list or dict met again at the same
    depth is written from its first text, so a report that many rows share
    is encoded once; ``seen`` holds each such container, so that its id
    stays valid.  A generator is written as a list, so that a caller can
    format rows one at a time.  Every part goes into one list, joined once
    at the end.
    """
    parts = []
    seen = {}

    def write(value, depth):
        if isinstance(value, str):
            parts.append(_encode_str(value))
        elif value is None or value is True or value is False:
            parts.append(_JSON_WORDS[value])
        elif isinstance(value, int):
            parts.append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict, GeneratorType)):
            inner = "\n" + "  " * (depth + 1)
            if isinstance(value, (list, tuple)) and value:
                try:
                    text = ("," + inner).join(map(_encode_str, value))
                    parts.append("[" + inner + text + inner[:-2] + "]")
                    return
                except TypeError:  # an item is no string
                    pass
            key = (id(value), depth)
            if key in seen:
                _, start, end = seen[key]
                parts.append("".join(parts[start:end]))
                seen[key] = (value, len(parts) - 1, len(parts))
            else:
                start = len(parts)
                write_container(value, depth, inner)
                seen[key] = (value, start, len(parts))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def write_container(value, depth, inner):
        if isinstance(value, dict):
            opening, closing = "{", "}"
            sep = opening + inner
            for name, item in value.items():
                parts.append(sep + _encode_str(name) + ": ")
                write(item, depth + 1)
                sep = "," + inner
        else:
            opening, closing = "[", "]"
            sep = opening + inner
            for item in value:
                parts.append(sep)
                write(item, depth + 1)
                sep = "," + inner
        # sep starts with "," once an item is written
        parts.append(inner[:-2] + closing if sep[0] == "," else opening + closing)

    write(obj, 0)
    return "".join(parts)


def _emit_json(args, obj: dict) -> None:
    _emit(args, _json_text(obj))


# ----------------------------------------------------------------- commands


def cmd_matrix(args) -> int:
    matrix, resolved = parse_matrix_spec(args.spec)
    # each row's cells are made as text and joined before the next row's
    rows = truncate(matrix, args.n, spaces.fmt_ratio)
    if args.format == "csv":
        _emit(args, "\n".join(",".join(cells) for cells in rows))
    else:
        _emit_json(args, _envelope("matrix", resolved, args.n, "entries", rows))
    return 0


def cmd_transform(args) -> int:
    matrix, m_spec = parse_matrix_spec(args.matrix)
    x, x_spec = parse_seq_spec(args.x)
    coords = apply_general(matrix, x, args.n, spaces.fmt_ratio)
    if args.format == "csv":
        _emit(args, "\n".join(coords))
    else:
        spec = {"matrix": m_spec, "x": x_spec}
        _emit_json(args, _envelope("transform", spec, args.n, "coordinates", coords))
    return 0


def _space(tag: str) -> SpaceId:
    try:
        return SpaceId(tag)
    except ValueError:
        raise SpecError(
            f"unknown space {tag!r}; choose from "
            + ", ".join(s.value for s in SpaceId)
        ) from None


def cmd_membership(args) -> int:
    x, x_spec = parse_seq_spec(args.x)
    space = _space(args.space)
    spec = {"x": x_spec, "space": space.value}
    if args.domain is not None:
        matrix, m_spec = parse_matrix_spec(args.domain)
        if not isinstance(matrix, Triangle):
            raise SpecError("membership domain must be a triangle spec")
        spec["domain"] = m_spec
        report = spaces.domain_membership(x, matrix, space, args.n)
    else:
        report = spaces.membership(x, space, args.n)
    _emit_json(args, _envelope("membership", spec, args.n, "report", report.to_dict()))
    return 0


def cmd_dual(args) -> int:
    a, a_spec = parse_seq_spec(args.a)
    domain, d_spec = parse_domain_spec(args.domain)
    report = duals.dual_test(domain, a, args.kind, args.n)
    spec = {"a": a_spec, "domain": d_spec, "kind": args.kind}
    _emit_json(args, _envelope("dual", spec, args.n, "report", report.to_dict()))
    return 0


def cmd_matclass(args) -> int:
    matrix, m_spec = parse_matrix_spec(args.matrix)
    domain, d_spec = parse_domain_spec(args.domain)
    y = _space(args.y)
    spec = {
        "direction": args.direction,
        "matrix": m_spec,
        "domain": d_spec,
        "y": y.value,
    }
    if args.direction == "from_domain":
        if isinstance(matrix, Triangle):
            raise SpecError(
                "from_domain requires a banded matrix spec (finite row supports)"
            )
        report = matclass.class_test_from_domain(matrix, domain, y, args.n)
    else:
        report = matclass.class_test_into_domain(matrix, domain, y, args.n)
    _emit_json(args, _envelope("matclass", spec, args.n, "report", report.to_dict()))
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the suites load only where they run

    report = verify.run_suite(args.suite, args.n, args.seed)
    envelope = {
        "tool": "bvdomains",
        "version": __version__,
        "command": "verify",
        "policy": spaces.policy_dict(),
        "report": report,
    }
    _emit_json(args, envelope)
    return 0 if report["summary"]["failed"] == 0 else 1


# --------------------------------------------------------------- entrypoint


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and the ``cmd_*`` functions it binds look up what they call
    when they run."""
    parser = argparse.ArgumentParser(
        prog="bvdomains",
        description="Exact-arithmetic toolkit for bounded-variation matrix domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False):
        p.add_argument("--n", type=int, default=16, help="truncation depth")
        p.add_argument("--out", help="write output to FILE instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("matrix", help="materialize a matrix truncation")
    p.add_argument("--spec", required=True, help="matrix spec (JSON or shorthand)")
    common(p, fmt=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("transform", help="apply a matrix to a sequence")
    p.add_argument("--matrix", required=True, help="matrix spec")
    p.add_argument("--x", required=True, help="sequence spec")
    common(p, fmt=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("membership", help="space membership diagnostic")
    p.add_argument("--x", required=True, help="sequence spec")
    p.add_argument("--space", required=True, help="space tag (l1, linf, c, c0, cs, bs, bv, bv0)")
    p.add_argument("--domain", help="optional triangle spec; test Ax instead of x")
    common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("dual", help="alpha/beta/gamma dual membership test")
    p.add_argument("--a", required=True, help="sequence spec")
    p.add_argument("--domain", required=True, help='domain spec: C, {"label":"G",...}, {"label":"R",...}')
    p.add_argument("--kind", required=True, choices=duals.DUAL_KINDS)
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("matclass", help="matrix-class characterization test")
    p.add_argument("--direction", required=True, choices=("from_domain", "into_domain"))
    p.add_argument("--matrix", required=True, help="matrix spec (banded for from_domain)")
    p.add_argument("--domain", required=True, help="domain spec")
    p.add_argument("--y", required=True, help="target/source space tag")
    common(p)
    p.set_defaults(func=cmd_matclass)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("--suite", default="all", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized instances")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place where exceptions become exit codes.

    Mathematical errors are tested first because InvalidWeightsError and
    UnsupportedClassError are ValueErrors too; every other ValueError,
    SpecError included, is a usage error, and so is an --out file that
    cannot be written, which is found before the command runs, and a
    stdout that cannot be written (``_emit``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.n <= MAX_TRUNCATION:
            raise SpecError(f"--n must be in [1, {MAX_TRUNCATION}], got {args.n}")
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except (SingularMatrixError, InvalidWeightsError, UnsupportedClassError) as exc:
        print(f"mathematical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if args.out is None and exc.filename != "stdout":
            raise
        target = "stdout" if args.out is None else f"--out {args.out}"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
