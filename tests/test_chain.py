import json
import random
from fractions import Fraction

import pytest

from addcubic import (CHAIN_CATALOGUE, catalogue_as_json_dict,
                      catalogue_from_json_dict, chain_replay, cubic_1d,
                      even_1d, linear_1d, model_1d, point, random_linear,
                      random_point, FuncModel)

EXPECTED_LABELS = ("2.5", "2.8", "2.9", "2.10", "2.11", "2.12", "2.13",
                   "2.14", "2.15", "2.16", "2.17", "2.18", "2.19", "2.20",
                   "2.21", "2.22", "2.23", "2.24", "2.25", "2.26", "2.27")


def test_catalogue_labels_and_size():
    assert tuple(i.label for i in CHAIN_CATALOGUE) == EXPECTED_LABELS
    assert len(CHAIN_CATALOGUE) == 21


def test_catalogue_argument_reach():
    # f only needs integer combinations with |a| <= 4 and |b| <= 3
    for ident in CHAIN_CATALOGUE:
        for _, a, b in ident.moved_terms:
            assert abs(a) <= 4 and abs(b) <= 3


def test_fractional_identity_stores_printed_coefficients():
    ident = next(i for i in CHAIN_CATALOGUE if i.label == "2.19")
    printed = {c for c, _, _ in ident.rhs_printed}
    assert printed == {"-79/28", "-73/28", "6/28", "264/28"}
    parsed = {c for c, _, _ in ident.rhs}
    assert parsed == {Fraction(-79, 28), Fraction(-73, 28), Fraction(3, 14),
                      Fraction(66, 7)}


def test_replay_all_zero_for_linear_models():
    rng = random.Random(17)
    for _ in range(20):
        f = model_1d(random_linear(rng, 1, 1))
        x = random_point(rng, 1)
        y = random_point(rng, 1)
        replay = chain_replay(f, x, y)
        assert len(replay) == 21
        assert all(v.is_zero for v in replay.values())


def test_replay_multidimensional_linear():
    rng = random.Random(23)
    f = FuncModel(2, 3, (random_linear(rng, 2, 3),))
    replay = chain_replay(f, random_point(rng, 2), random_point(rng, 2))
    assert all(v.is_zero for v in replay.values())


def test_replay_cubic_identity_2_25_frozen_value():
    # LHS - RHS = (64 + 8) - (-24 + 120 + 0) = -24 for t -> t^3 at (1, 1)
    f = model_1d(cubic_1d(1))
    replay = chain_replay(f, point([1]), point([1]))
    assert replay["2.25"].value.coords == (Fraction(-24),)


def test_replay_fractional_identity_zero_for_additive():
    f = model_1d(linear_1d(1))
    replay = chain_replay(f, point([1]), point([2]))
    assert replay["2.19"].is_zero


def test_replay_even_model_nonzero_on_many_identities():
    f = model_1d(even_1d(1))
    replay = chain_replay(f, point([1]), point([1]))
    nonzero = [label for label, v in replay.items() if not v.is_zero]
    assert len(nonzero) >= 5


def test_replay_at_float_points_equals_exact_replay():
    # A float point holds its doubles' exact values: the float replay is
    # the exact replay at the same doubles.
    rng = random.Random(29)
    linear = model_1d(random_linear(rng, 1, 1))
    cubic = model_1d(linear_1d(2), cubic_1d(Fraction(3, 7)))
    nonzero = set()
    for _ in range(10):
        x, y = rng.uniform(-8, 8), rng.uniform(-8, 8) / 3
        for f in (linear, cubic):
            replay = chain_replay(f, point([x], "float"), point([y], "float"))
            exact = chain_replay(f, point([Fraction(x)]), point([Fraction(y)]))
            assert len(replay) == 21
            assert {label: v.value.coords for label, v in replay.items()} \
                == {label: v.value.coords for label, v in exact.items()}
            assert [v.is_zero for v in replay.values()] \
                == [v.is_zero for v in exact.values()]
            if f is linear:
                assert all(v.is_zero for v in replay.values())
            else:
                nonzero |= {label for label, v in replay.items()
                            if not v.is_zero}
    assert nonzero and len(nonzero) < 21


def test_catalogue_json_round_trip():
    doc = catalogue_as_json_dict()
    assert doc["schema_version"] == 1
    text = json.dumps(doc)
    restored = catalogue_from_json_dict(json.loads(text))
    assert len(restored) == 21
    for original, loaded in zip(CHAIN_CATALOGUE, restored):
        assert original.label == loaded.label
        assert original.lhs == loaded.lhs
        assert original.rhs == loaded.rhs
        assert original.lhs_printed == loaded.lhs_printed
        assert original.rhs_printed == loaded.rhs_printed


def test_catalogue_json_preserves_unreduced_fractions():
    doc = catalogue_as_json_dict()
    entry = next(e for e in doc["identities"] if e["id"] == "2.19")
    coefficients = [row[0] for row in entry["rhs"]]
    assert coefficients == ["-79/28", "-73/28", "6/28", "264/28"]


def test_catalogue_from_json_rejects_bad_version():
    doc = catalogue_as_json_dict()
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        catalogue_from_json_dict(doc)


def test_replay_with_loaded_catalogue_matches_builtin():
    loaded = catalogue_from_json_dict(catalogue_as_json_dict())
    f = model_1d(even_1d(1))
    x, y = point([Fraction(1, 2)]), point([Fraction(3)])
    builtin = chain_replay(f, x, y)
    external = chain_replay(f, x, y, catalogue=loaded)
    assert {k: v.value.coords for k, v in builtin.items()} \
        == {k: v.value.coords for k, v in external.items()}
