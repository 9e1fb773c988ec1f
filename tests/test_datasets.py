"""Dataset file format: parsing, validation messages, round-trips, built-ins."""

import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import ifvs
from ifsim import (
    BUILTIN_DATASET_NAMES,
    IFS,
    IFV,
    DatasetParseError,
    DatasetValidationError,
    WeightVector,
    builtin_dataset,
    dumps_dataset,
    load_dataset,
    parse_dataset,
    resolve_dataset,
    save_dataset,
)

GOOD = """
{
  "universe": ["x1", "x2"],
  "sets": {
    "A": [[0.30, 0.20], [0.40, 0.30]],
    "B": [[0.15, 0.25], [0.25, 0.35]]
  },
  "weights": [0.5, 0.5]
}
"""


class TestParsing:
    def test_good_document(self):
        sets, w = parse_dataset(GOOD)
        assert set(sets) == {"A", "B"}
        assert sets["A"].universe == ("x1", "x2")
        assert sets["A"].values[0].mu == 0.30
        assert w == WeightVector((0.5, 0.5))

    def test_weights_optional(self):
        sets, w = parse_dataset('{"universe": ["x"], "sets": {"A": [[0.3, 0.2]]}}')
        assert w is None
        assert len(sets["A"]) == 1

    def test_invalid_json_reports_location(self):
        with pytest.raises(DatasetParseError, match=r"line \d+, column \d+"):
            parse_dataset('{"universe": ["x"], }')

    def test_missing_universe(self):
        with pytest.raises(DatasetParseError, match="universe"):
            parse_dataset('{"sets": {"A": [[0.3, 0.2]]}}')

    def test_unknown_field(self):
        with pytest.raises(DatasetParseError, match="unknown field"):
            parse_dataset('{"universe": ["x"], "sets": {"A": [[0.3, 0.2]]}, "extra": 1}')

    def test_invalid_pair_is_named(self):
        doc = '{"universe": ["x"], "sets": {"A": [[0.7, 0.4]]}}'
        with pytest.raises(DatasetValidationError, match=r"set 'A', pair 1"):
            parse_dataset(doc)

    def test_wrong_pair_count(self):
        doc = '{"universe": ["x1", "x2"], "sets": {"A": [[0.3, 0.2]]}}'
        with pytest.raises(DatasetValidationError, match="1 pairs"):
            parse_dataset(doc)

    def test_bad_weights_sum(self):
        doc = ('{"universe": ["x1", "x2", "x3"], "sets": '
               '{"A": [[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]]}, "weights": [0.5, 0.5, 0.1]}')
        with pytest.raises(DatasetValidationError, match="weights"):
            parse_dataset(doc)

    def test_bad_weights_message_is_short(self):
        n = 25_000
        doc = json.dumps({"universe": [f"x{i}" for i in range(n)],
                          "sets": {"A": [[0.1, 0.2]] * n}, "weights": [1.5 / n] * n})
        with pytest.raises(DatasetValidationError, match="weights") as info:
            parse_dataset(doc)
        message = str(info.value)
        assert len(message) < 200
        assert "25000 entries" in message and "sum to" in message

    def test_weights_length_mismatch(self):
        doc = '{"universe": ["x"], "sets": {"A": [[0.3, 0.2]]}, "weights": [0.5, 0.5]}'
        with pytest.raises(DatasetValidationError, match="weights"):
            parse_dataset(doc)

    def test_non_numeric_pair(self):
        doc = '{"universe": ["x"], "sets": {"A": [["a", 0.2]]}}'
        with pytest.raises(DatasetParseError, match="pair 1"):
            parse_dataset(doc)

    def test_duplicate_universe_labels(self):
        doc = '{"universe": ["x", "x"], "sets": {"A": [[0.3, 0.2], [0.4, 0.3]]}}'
        with pytest.raises(DatasetValidationError, match="unique"):
            parse_dataset(doc)

    @pytest.mark.parametrize("doc,message", [
        ('[1, 2]', "^top level must be an object$"),
        ('{"universe": ["x"], "sets": [[[0.3, 0.2]]]}', "^field 'sets': expected a non-empty object"),
        ('{"universe": ["x"], "sets": {"A": {"x": [0.3, 0.2]}}}', "^set 'A': expected a list of"),
    ])
    def test_wrong_structure(self, doc, message):
        with pytest.raises(DatasetParseError, match=message):
            parse_dataset(doc)

    def test_int_too_large_for_a_float_in_a_pair(self):
        doc = '{"universe": ["x1", "x2"], "sets": {"A": [[0.3, 0.2], [0, 1%s]]}}' % ("0" * 400)
        with pytest.raises(DatasetValidationError) as info:
            parse_dataset(doc)
        message = str(info.value)
        assert message.startswith("set 'A', pair 2 [0, 1000")
        assert message.endswith("]: a degree is too large for a float") and len(message) < 100

    # json.loads raises a plain ValueError for the first, RecursionError for the second
    @pytest.mark.parametrize("text,message", [
        ('{"universe": ["x"], "sets": {"A": [[1%s, 0]]}}' % ("0" * 5000),
         r"^invalid JSON: an integer has more than \d+ digits$"),
        ("[" * 100_000 + "]" * 100_000, "^invalid JSON: arrays or objects nested too deeply$"),
    ], ids=["int-over-digit-limit", "nested-too-deeply"])
    def test_json_that_the_decoder_refuses(self, text, message):
        with pytest.raises(DatasetParseError, match=message):
            parse_dataset(text)

    def test_int_too_large_for_a_float_in_the_weights(self):
        doc = '{"universe": ["x"], "sets": {"A": [[0.3, 0.2]]}, "weights": [1%s]}' % ("0" * 400)
        with pytest.raises(DatasetValidationError,
                           match=r"^weights \(1 entries\): a weight is too large for a float$"):
            parse_dataset(doc)


class TestVectorParsing:
    """Sets are checked as arrays; a failed check still names the first
    offending pair, as the pair-by-pair check did."""

    @staticmethod
    def _doc(pairs: str) -> str:
        return '{"universe": ["a", "b", "c", "d"], "sets": {"A": [[0.1, 0.2], [0.3, 0.3], %s]}}' % pairs

    @pytest.mark.parametrize("tail,error,pair", [
        ("[0.7, 0.4], [2, 0]", DatasetValidationError, 3),
        ("[0.1, 0.2], [0.5, NaN]", DatasetValidationError, 4),
        ("[0.1, 0.2], [1e400, 0]", DatasetValidationError, 4),
        ("[true, 0.2], [2, 0]", DatasetParseError, 3),
        ('[0.1, 0.2], ["0.3", 0.2]', DatasetParseError, 4),
        ("[0.1, 0.2], [0.3, 0.2, 0.1]", DatasetParseError, 4),
        ("[0.1, 0.2], [[0.3], 0.2]", DatasetParseError, 4),
        ("[0.1, 0.2], 0.3", DatasetParseError, 4),
        ('[0.1, 0.2], {"mu": 0.1, "nu": 0.2}', DatasetParseError, 4),
    ])
    def test_first_offender_named(self, tail, error, pair):
        with pytest.raises(error, match=f"set 'A', pair {pair}[ :]"):
            parse_dataset(self._doc(tail))

    def test_ints_accepted(self):
        sets, _ = parse_dataset(self._doc("[1, 0], [0, 1]"))
        assert sets["A"].values[2:] == (IFV(1.0, 0.0), IFV(0.0, 1.0))

    def test_same_set_as_every_other_construction(self):
        pairs = [(0.3, 0.2), (1.0, 0.0), (-0.0, 0.25)]
        universe = ("x1", "x2", "x3")
        text = json.dumps({"universe": list(universe), "sets": {"A": pairs}})
        parsed = parse_dataset(text)[0]["A"]
        for other in (IFS(universe, tuple(IFV(m, n) for m, n in pairs)),
                      IFS.from_pairs(pairs), IFS.from_pairs(iter(pairs)), IFS.from_pairs(np.array(pairs))):
            assert parsed == other and hash(parsed) == hash(other)
        assert not parsed.degrees.flags.writeable
        assert parsed.degrees.flags.c_contiguous


def _stdlib_dump(sets, weights) -> str:
    doc = {"universe": list(next(iter(sets.values())).universe),
           "sets": {name: [[v.mu, v.nu] for v in s.values] for name, s in sets.items()}}
    if weights is not None:
        doc["weights"] = list(weights.weights)
    return json.dumps(doc, indent=2) + "\n"


class TestDumpsMatchesStdlib:
    """dumps_dataset writes exactly what json.dumps(doc, indent=2) writes."""

    @pytest.mark.parametrize("name", BUILTIN_DATASET_NAMES)
    def test_builtins(self, name):
        sets, w = builtin_dataset(name)
        assert dumps_dataset(sets, w) == _stdlib_dump(sets, w)
        assert dumps_dataset(sets) == _stdlib_dump(sets, None)

    def test_escaped_labels_and_names(self):
        universe = ['q"uote', "back\\slash", "new\nline", "\u00e4", "\u6f22", "\U0001f600", "tab\t"]
        pairs = [(1 / 3, 1 / 7), (-0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e-300, 5e-324), (0.1, 0.2), (0.5, 0.5)]
        sets = {'set "A"': IFS.from_pairs(pairs, universe), "\u00fc": IFS.from_pairs(pairs[::-1], universe)}
        w = WeightVector((1 / 7,) * 7)
        assert dumps_dataset(sets, w) == _stdlib_dump(sets, w)
        assert dumps_dataset(sets) == _stdlib_dump(sets, None)

    def test_one_element(self):
        sets = {"A": IFS.from_pairs([(0.25, 0.5)], ["only"])}
        assert dumps_dataset(sets, WeightVector((1.0,))) == _stdlib_dump(sets, WeightVector((1.0,)))


@st.composite
def _datasets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    universe = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True))
    sets = {name: IFS(universe, tuple(draw(ifvs()) for _ in range(n))) for name in names}
    raw = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    weights = draw(st.sampled_from([None, WeightVector(tuple(x / sum(raw) for x in raw))]))
    return sets, weights


@given(_datasets())
def test_round_trip_property(dataset):
    sets, weights = dataset
    assert parse_dataset(dumps_dataset(sets, weights)) == (sets, weights)


class TestDumpsRejects:
    def test_empty_dataset(self):
        with pytest.raises(DatasetValidationError, match="^cannot serialize an empty dataset$"):
            dumps_dataset({})

    def test_sets_over_two_universes(self):
        sets = {"A": IFS.from_pairs([(0.3, 0.2)], ["x"]), "B": IFS.from_pairs([(0.3, 0.2)], ["y"])}
        with pytest.raises(DatasetValidationError, match="^all sets must share one universe$"):
            dumps_dataset(sets)


class TestRoundTrip:
    def test_parse_dump_parse_identical(self):
        sets, w = parse_dataset(GOOD)
        again, w2 = parse_dataset(dumps_dataset(sets, w))
        assert again == sets
        assert w2 == w

    def test_file_round_trip(self, tmp_path):
        sets, w = builtin_dataset("tableIII")
        path = tmp_path / "tableIII.json"
        save_dataset(path, sets, w)
        loaded, w2 = load_dataset(path)
        assert loaded == sets
        assert w2 == w

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(DatasetParseError, match="not UTF-8 text"):
            load_dataset(path)

    def test_exact_float_preservation(self, tmp_path):
        sets = {"A": IFS.from_pairs([(1 / 3, 1 / 7)], ["x"])}
        path = tmp_path / "thirds.json"
        save_dataset(path, sets)
        loaded, _ = load_dataset(path)
        assert loaded["A"].values[0].mu == 1 / 3
        assert loaded["A"].values[0].nu == 1 / 7


class TestBuiltins:
    def test_table_one_cases(self):
        for i in range(1, 6):
            sets, w = builtin_dataset(f"tableI_case{i}")
            assert set(sets) == {"A", "B"}
            assert w == WeightVector((0.5, 0.5))

    def test_table_three(self):
        sets, w = builtin_dataset("tableIII")
        assert set(sets) == {"P1", "P2", "P3", "S1"}
        assert sets["S1"].universe == ("x1", "x2", "x3")
        assert len(w) == 3

    def test_unknown_name(self):
        # int() would read the last three as case 1, 1 and 5
        for name in ("tableI_case9", "tableI_case01", "tableI_case 1", "tableI_case+5"):
            assert name not in BUILTIN_DATASET_NAMES
            with pytest.raises(DatasetValidationError, match="unknown built-in dataset"):
                builtin_dataset(name)

    def test_resolve_prefers_files(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(GOOD, encoding="utf-8")
        sets, _ = resolve_dataset(path)
        assert set(sets) == {"A", "B"}
        sets, _ = resolve_dataset("tableIII")
        assert "P1" in sets
        with pytest.raises(DatasetParseError, match="neither"):
            resolve_dataset("no_such_dataset")
