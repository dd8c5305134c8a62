"""Output checks for benchmark ops.

``check_output`` judges one op from its argv, exit code and stdout alone: the
exit code must be 0, stdout must parse, and each command's result must have
the shape and the invariants it promises.  ``digest`` is the fingerprint that
``golden.json`` records for the default seeds, so those ops are also compared
byte for byte against the output of the commit that made the file.
"""

from __future__ import annotations

import hashlib
import json
import re

_RATIONAL = re.compile(r"-?\d+(/\d+)?")
_FRACTION = re.compile(r"-?\d+/(\d+)")

_VERDICTS = {"certified_in", "likely_in", "likely_out", "inconclusive"}
_CLASS_VERDICTS = {"likely_in_class", "likely_not_in_class", "inconclusive"}


def digest(stdout: str) -> str:
    """First 16 hex digits of the sha256 of an op's stdout."""
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _flag(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _is_rational(text) -> bool:
    return isinstance(text, str) and _RATIONAL.fullmatch(text) is not None


def _check_rows(rows: list, n: int) -> str | None:
    if len(rows) != n or any(len(row) != n for row in rows):
        return f"expected {n}x{n} entries"
    for i, row in enumerate(rows):
        for k, value in enumerate(row):
            if not _is_rational(value):
                return f"entry ({i},{k}) is not an exact rational: {value!r}"
            if k > i and value != "0":
                return f"entry ({i},{k}) above the diagonal is {value}"
    return None


def _check_coords(coords: list, n: int) -> str | None:
    if len(coords) != n:
        return f"expected {n} coordinates, got {len(coords)}"
    if not all(_is_rational(v) for v in coords):
        return "a coordinate is not an exact rational"
    return None


def _check_matrix(argv, out, n):
    if _flag(argv, "--format", "json") == "csv":
        return _check_rows([line.split(",") for line in out.splitlines()], n)
    return _check_rows(json.loads(out)["entries"], n)


def _check_transform(argv, out, n):
    if _flag(argv, "--format", "json") == "csv":
        return _check_coords(out.splitlines(), n)
    return _check_coords(json.loads(out)["coordinates"], n)


def _check_dual(argv, out, n):
    report = json.loads(out)["report"]
    if report["kind"] != _flag(argv, "--kind") or report["n"] != n:
        return "report does not echo --kind and --n"
    if report["verdict"] not in _VERDICTS:
        return f"unknown verdict {report['verdict']!r}"
    weighted = _flag(argv, "--domain").startswith("{")
    if weighted and report["kind"] in ("beta", "gamma"):
        if report["cross_check"] is None or report["cross_check"]["match"] is not True:
            return "closed-form cross-check does not match"
    return None


def _check_matclass(argv, out, n):
    report = json.loads(out)["report"]
    if report["n"] != n or report["verdict"] not in _CLASS_VERDICTS:
        return f"bad class report (n={report['n']}, verdict={report['verdict']!r})"
    return None


def _check_membership(argv, out, n):
    report = json.loads(out)["report"]
    if report["n"] != n or report["verdict"] not in _VERDICTS:
        return f"bad membership report (n={report['n']}, verdict={report['verdict']!r})"
    return None


def _check_verify(argv, out, n):
    summary = json.loads(out)["report"]["summary"]
    if summary["total"] < 1 or summary["failed"] != 0:
        return f"verify summary {summary}"
    return None


_CHECKERS = {
    "matrix": _check_matrix,
    "transform": _check_transform,
    "dual": _check_dual,
    "matclass": _check_matclass,
    "membership": _check_membership,
    "verify": _check_verify,
}


def check_output(argv: list, code, stdout: str, expected_digest: str | None = None) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if expected_digest is not None and digest(stdout) != expected_digest:
        return "stdout differs from the recorded golden output"
    try:
        return _CHECKERS[argv[0]](argv, stdout, int(_flag(argv, "--n")))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unparseable output: {exc!r}"


def max_den_bits(argv: list, stdout: str) -> int:
    """Largest denominator bit-length among the exact rationals of the result.

    The ``policy`` blocks hold fixed constants, not results, and are skipped.
    """
    if argv[0] in ("matrix", "transform") and _flag(argv, "--format", "json") == "csv":
        values = stdout.replace("\n", ",").split(",")
    else:
        values = []
        stack = [json.loads(stdout)]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack.extend(v for k, v in node.items() if k != "policy")
            elif isinstance(node, list):
                stack.extend(node)
            elif isinstance(node, str):
                values.append(node)
    best = 1
    for value in values:
        match = _FRACTION.fullmatch(value)
        if match:
            best = max(best, int(match.group(1)).bit_length())
    return best
