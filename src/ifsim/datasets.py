"""Dataset files: a small JSON schema for universes, IFSs, and weights.

Layout::

    {
      "universe": ["x1", "x2"],
      "sets": {"A": [[0.30, 0.20], [0.40, 0.30]], "B": [[0.15, 0.25], [0.25, 0.35]]},
      "weights": [0.5, 0.5]          // optional
    }

Every set must have one [mu, nu] pair per universe element and every pair
must validate as an IFV; weights, when present, must validate as a weight
vector of matching length.  Each set's pairs become one (2, n) float64
degree array, checked with vector operations; only when that check fails
are the pairs walked one by one to name the first offender.  Parsing errors
carry the JSON line/column; validation errors name the offending set, pair,
or rule.  Saving writes the text json.dumps(doc, indent=2) would write,
straight from the degree arrays, with repr-exact floats, so load -> save ->
load round-trips to equal objects.

A few named datasets used by the repro scenarios are built in:
tableI_case1 .. tableI_case5 (pairwise comparison cases, with 0.5/0.5
weights) and tableIII (the three-pattern classification problem with its
test sample, with uniform 1/3 weights).
"""

from __future__ import annotations

import json
import reprlib
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import IFS, IFV, IfsimError, WeightVector, _degrees_valid, _pair_rows, check_weights


class DatasetParseError(IfsimError, ValueError):
    """The file is not syntactically valid (bad JSON or wrong field types)."""


class DatasetValidationError(IfsimError, ValueError):
    """The file parsed but violates a dataset rule; names the offender."""


_NUMBER_TYPES = frozenset({int, float})  # what json.loads gives for numbers, bool excluded


def _check_pairs(name: str, raw_pairs: list) -> None:
    """Raise for the first pair that is not a valid [mu, nu] pair."""
    for i, pair in enumerate(raw_pairs):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
            raise DatasetParseError(f"set {name!r}, pair {i + 1}: expected [mu, nu] numbers")
        try:
            IFV(pair[0], pair[1])
        except IfsimError as exc:
            raise DatasetValidationError(
                f"set {name!r}, pair {i + 1} {reprlib.repr(pair)}: {exc}") from exc


def _parse_degrees(name: str, raw_pairs, n: int) -> np.ndarray:
    """The (2, n) degree array of one set, checked with vector operations;
    the pair-by-pair check runs only to name the offender of a failed one."""
    if not isinstance(raw_pairs, list):
        raise DatasetParseError(f"set {name!r}: expected a list of [mu, nu] pairs")
    if len(raw_pairs) != n:
        raise DatasetValidationError(
            f"set {name!r}: {len(raw_pairs)} pairs for a universe of {n} elements"
        )
    try:
        numbers = _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(raw_pairs)))
        rows = _pair_rows(raw_pairs) if numbers else None
    except (TypeError, OverflowError):  # a pair that is a number; an int too large for a float
        rows = None
    if rows is None or not _degrees_valid(rows.T):
        _check_pairs(name, raw_pairs)  # raises for the first offending pair
    return np.ascontiguousarray(rows.T)


def parse_dataset(text: str) -> tuple[dict[str, IFS], WeightVector | None]:
    """Parse dataset JSON text into validated objects, order preserved."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # the decoder's int() refuses the literal
        limit = sys.get_int_max_str_digits()
        raise DatasetParseError(f"invalid JSON: an integer has more than {limit} digits") from exc
    except RecursionError as exc:
        raise DatasetParseError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DatasetParseError("top level must be an object")
    universe = doc.get("universe")
    if not (isinstance(universe, list) and universe and {str}.issuperset(map(type, universe))):
        raise DatasetParseError("field 'universe': expected a non-empty list of strings")
    if len(set(universe)) != len(universe):
        raise DatasetValidationError("universe labels must be unique")
    sets = doc.get("sets")
    if not (isinstance(sets, dict) and sets):
        raise DatasetParseError("field 'sets': expected a non-empty object of named sets")
    unknown = set(doc) - {"universe", "sets", "weights"}
    if unknown:
        raise DatasetParseError(f"unknown field(s): {', '.join(sorted(unknown))}")
    universe_t = tuple(universe)
    out: dict[str, IFS] = {}
    for name, raw_pairs in sets.items():
        out[name] = IFS._from_degrees(universe_t, _parse_degrees(name, raw_pairs, len(universe_t)))
    raw_w = doc.get("weights")
    return out, None if raw_w is None else _parse_weights(raw_w, len(universe_t))


def _parse_weights(raw_w, n: int) -> WeightVector:
    """A decoded JSON weights list (the dataset's field, or a weights file)
    as a WeightVector for a universe of n elements; numbers only, no bools."""
    if not (isinstance(raw_w, list) and _NUMBER_TYPES.issuperset(map(type, raw_w))):
        raise DatasetParseError("field 'weights': expected a list of numbers")
    if len(raw_w) != n:
        raise DatasetValidationError(
            f"weights: {len(raw_w)} entries for a universe of {n} elements"
        )
    try:
        return WeightVector(tuple(raw_w))
    except IfsimError as exc:
        raise DatasetValidationError(f"weights ({len(raw_w)} entries): {exc}") from exc


def load_dataset(path: str | Path) -> tuple[dict[str, IFS], WeightVector | None]:
    """Load and validate a dataset file; text that is not UTF-8 is a parse error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetParseError(
            f"{str(path)!r} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    return parse_dataset(text)


def _json_array(items, indent: str) -> str:
    """A JSON array of already-encoded items, laid out as json.dumps(...,
    indent=2) lays out an array that starts at the given indent."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# one [mu, nu] pair of a set, as json.dumps(..., indent=2) writes it
_PAIR = "[\n        {!r},\n        {!r}\n      ]".format


def dumps_dataset(sets: dict[str, IFS], weights: WeightVector | None = None) -> str:
    """Serialize to the dataset JSON format (repr-exact floats, round-trips).

    The text is exactly json.dumps(doc, indent=2) + "\n", written from the
    degree arrays without building the document's nested lists."""
    if not sets:
        raise DatasetValidationError("cannot serialize an empty dataset")
    universes = {ifs.universe for ifs in sets.values()}
    if len(universes) != 1:
        raise DatasetValidationError("all sets must share one universe")
    universe = next(iter(universes))
    named = []
    for name, ifs in sets.items():
        if not isinstance(name, str):  # json.dumps writes the keys 1 and None as "1" and "null"
            raise DatasetValidationError(f"set names must be strings, got {reprlib.repr(name)}")
        key = encode_basestring_ascii(name)  # the key as json.dumps writes it
        named.append(f"    {key}: " + _json_array(map(_PAIR, *ifs.degrees.tolist()), "    "))
    parts = [
        '  "universe": ' + _json_array(map(encode_basestring_ascii, universe), "  "),
        '  "sets": {\n' + ",\n".join(named) + "\n  }",
    ]
    if weights is not None:
        check_weights(weights, len(universe))
        parts.append('  "weights": ' + _json_array(map(repr, weights.weights), "  "))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def save_dataset(path: str | Path, sets: dict[str, IFS], weights: WeightVector | None = None) -> None:
    Path(path).write_text(dumps_dataset(sets, weights), encoding="utf-8")


# ---------------------------------------------------------------------------
# built-in datasets used by the repro scenarios
# ---------------------------------------------------------------------------

_TABLE_I = {
    1: ([(0.30, 0.20), (0.40, 0.30)], [(0.15, 0.25), (0.25, 0.35)]),
    2: ([(0.30, 0.20), (0.40, 0.30)], [(0.16, 0.26), (0.26, 0.36)]),
    3: ([(0.50, 0.40), (0.40, 0.30)], [(0.15, 0.25), (0.25, 0.35)]),
    4: ([(0.50, 0.40), (0.40, 0.30)], [(0.16, 0.26), (0.26, 0.36)]),
    5: ([(0.30, 0.20), (0.40, 0.30)], [(0.45, 0.15), (0.55, 0.25)]),
}

_TABLE_III = {
    "P1": [(0.15, 0.25), (0.25, 0.35), (0.35, 0.45)],
    "P2": [(0.05, 0.15), (0.15, 0.25), (0.25, 0.35)],
    "P3": [(0.16, 0.26), (0.26, 0.36), (0.36, 0.46)],
    "S1": [(0.30, 0.20), (0.40, 0.30), (0.50, 0.40)],
}

BUILTIN_DATASET_NAMES = tuple(f"tableI_case{i}" for i in _TABLE_I) + ("tableIII",)


def builtin_dataset(name: str) -> tuple[dict[str, IFS], WeightVector | None]:
    """Return one of the built-in datasets by name."""
    if name not in BUILTIN_DATASET_NAMES:
        raise DatasetValidationError(f"unknown built-in dataset {name!r}")
    if name == "tableIII":
        universe = ("x1", "x2", "x3")
        sets = {k: IFS.from_pairs(v, universe) for k, v in _TABLE_III.items()}
        return sets, WeightVector((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
    a_pairs, b_pairs = _TABLE_I[int(name.removeprefix("tableI_case"))]
    universe = ("x1", "x2")
    return ({"A": IFS.from_pairs(a_pairs, universe), "B": IFS.from_pairs(b_pairs, universe)},
            WeightVector((0.5, 0.5)))


def resolve_dataset(spec: str | Path) -> tuple[dict[str, IFS], WeightVector | None]:
    """Resolve a --data argument: an existing file path wins, then a
    built-in dataset name."""
    p = Path(spec)
    if p.exists():
        return load_dataset(p)
    if str(spec) in BUILTIN_DATASET_NAMES:
        return builtin_dataset(str(spec))
    raise DatasetParseError(
        f"{spec!r} is neither an existing file nor a built-in dataset "
        f"(built-ins: {', '.join(BUILTIN_DATASET_NAMES)})"
    )
