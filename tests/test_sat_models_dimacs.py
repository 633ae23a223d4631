"""Unit tests for minimal-model utilities."""

from repro.sat import (
    enumerate_minimal_models,
    minimum_model,
    shrink_model,
)


class TestShrinkModel:
    def test_drops_useless_variables(self):
        clauses = [[1, 2]]
        assert shrink_model(clauses, frozenset({1, 2, 3})) == frozenset({1})

    def test_keeps_required_variables(self):
        clauses = [[1], [2]]
        assert shrink_model(clauses, frozenset({1, 2})) == frozenset({1, 2})

    def test_deterministic(self):
        clauses = [[1, 2]]
        a = shrink_model(clauses, frozenset({1, 2}))
        b = shrink_model(clauses, frozenset({1, 2}))
        assert a == b == frozenset({1})  # higher vars dropped first


class TestEnumerateMinimalModels:
    def test_simple_chain(self):
        models = enumerate_minimal_models([[1, 2], [2, 3], [3, 4]])
        assert frozenset({2, 3}) in models
        for model in models:
            assert len(model) <= 3

    def test_single_clause_gives_singletons(self):
        models = set(enumerate_minimal_models([[1, 2, 3]]))
        assert models == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_empty_formula(self):
        assert enumerate_minimal_models([]) == [frozenset()]

    def test_limit_respected(self):
        models = enumerate_minimal_models([[v for v in range(1, 10)]],
                                          limit=4)
        assert len(models) == 4


class TestMinimumModel:
    def test_prefers_shared_variable(self):
        # Variable 2 hits both clauses; singletons 1 or 3 hit only one.
        assert minimum_model([[1, 2], [2, 3]]) == frozenset({2})

    def test_tie_break_deterministic(self):
        assert minimum_model([[1, 2]]) == frozenset({1})

    def test_unsat_returns_none(self):
        # Not monotone, but the API handles it: x and not-x.
        assert minimum_model([[1], [-1]]) is None

