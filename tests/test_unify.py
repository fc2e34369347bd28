"""Unit and property tests for unification, matching, and variance."""

from hypothesis import given, strategies as st

from repro.datalog.substitution import Substitution
from repro.datalog.terms import atom, number, string, struct, var
from repro.datalog.unify import match, occurs, unify, variant


class TestUnify:
    def test_identical_constants(self):
        assert unify(atom("a"), atom("a")) is not None

    def test_mismatched_constants(self):
        assert unify(atom("a"), atom("b")) is None

    def test_atom_vs_string_never_unify(self):
        assert unify(atom("x"), string("x")) is None

    def test_variable_binds_constant(self):
        subst = unify(var("X"), atom("a"))
        assert subst is not None and subst.resolve(var("X")) == atom("a")

    def test_constant_binds_variable_symmetrically(self):
        subst = unify(atom("a"), var("X"))
        assert subst is not None and subst.resolve(var("X")) == atom("a")

    def test_variable_variable_aliasing(self):
        subst = unify(var("X"), var("Y"))
        assert subst is not None
        extended = unify(var("X"), atom("a"), subst)
        assert extended is not None
        assert extended.resolve(var("Y")) == atom("a")

    def test_same_variable_trivially_unifies(self):
        subst = unify(var("X"), var("X"))
        assert subst is not None and len(subst) == 0

    def test_compound_recursive(self):
        subst = unify(struct("f", var("X"), atom("b")),
                      struct("f", atom("a"), var("Y")))
        assert subst is not None
        assert subst.resolve(var("X")) == atom("a")
        assert subst.resolve(var("Y")) == atom("b")

    def test_functor_mismatch(self):
        assert unify(struct("f", var("X")), struct("g", var("X"))) is None

    def test_arity_mismatch(self):
        assert unify(struct("f", atom("a")), struct("f", atom("a"), atom("b"))) is None

    def test_compound_vs_constant(self):
        assert unify(struct("f", atom("a")), atom("f")) is None

    def test_conflicting_bindings_fail(self):
        assert unify(struct("f", var("X"), var("X")),
                     struct("f", atom("a"), atom("b"))) is None

    def test_shared_variable_threading(self):
        subst = unify(struct("f", var("X"), var("X")),
                      struct("f", var("Y"), atom("a")))
        assert subst is not None
        assert subst.resolve(var("Y")) == atom("a")

    def test_occurs_check_blocks_cycles(self):
        assert unify(var("X"), struct("f", var("X"))) is None

    def test_occurs_check_can_be_disabled(self):
        assert unify(var("X"), struct("f", var("X")), occurs_check=False) is not None

    def test_occurs_through_bindings(self):
        subst = Substitution.empty().bind(var("Y"), struct("f", var("X")))
        assert occurs(var("X"), var("Y"), subst)

    def test_numbers(self):
        assert unify(number(1), number(1)) is not None
        assert unify(number(1), number(2)) is None


class TestMatch:
    def test_pattern_variable_binds(self):
        subst = match(struct("f", var("X")), struct("f", atom("a")))
        assert subst is not None and subst.resolve(var("X")) == atom("a")

    def test_instance_variable_never_binds(self):
        assert match(atom("a"), var("X")) is None

    def test_pattern_variable_can_capture_instance_variable(self):
        subst = match(var("P"), var("I"))
        assert subst is not None and subst.resolve(var("P")) == var("I")

    def test_constant_mismatch(self):
        assert match(atom("a"), atom("b")) is None

    def test_repeated_pattern_variable_consistency(self):
        # X already bound to a, cannot match b
        assert match(struct("f", var("X"), var("X")),
                     struct("f", atom("a"), atom("b"))) is None

    def test_shared_variables_in_swapped_positions(self):
        subst = match(struct("f", var("X"), var("Y")),
                      struct("f", var("Y"), var("X")))
        assert subst is not None
        assert subst.lookup(var("X")) == var("Y")
        assert subst.lookup(var("Y")) == var("X")

    def test_bound_pattern_variable_is_compared_not_walked(self):
        # The third X meets instance Y; X's binding (instance Y) is equal.
        subst = match(struct("f", var("X"), var("Y"), var("X")),
                      struct("f", var("Y"), var("X"), var("Y")))
        assert subst is not None and subst.lookup(var("X")) == var("Y")
        # Instance variables are constants: X bound to Y cannot match Z.
        assert match(struct("f", var("X"), var("Y"), var("X")),
                     struct("f", var("Y"), var("X"), var("Z"))) is None

    def test_pattern_variable_meeting_its_own_name(self):
        # X matches the instance constant X, so it cannot also match Y.
        assert match(struct("f", var("X"), var("X"), var("X")),
                     struct("f", var("X"), var("X"), var("Y"))) is None
        subst = match(struct("f", var("X"), var("Y")),
                      struct("f", var("X"), atom("a")))
        assert subst is not None
        assert subst.resolve(struct("g", var("X"), var("Y"))) == \
            struct("g", var("X"), atom("a"))


class TestVariant:
    def test_renamed_terms_are_variants(self):
        assert variant(struct("f", var("X"), var("Y")),
                       struct("f", var("A"), var("B")))

    def test_shared_vs_distinct_variables(self):
        assert not variant(struct("f", var("X"), var("X")),
                           struct("f", var("A"), var("B")))
        assert not variant(struct("f", var("A"), var("B")),
                           struct("f", var("X"), var("X")))

    def test_constants_must_agree(self):
        assert not variant(struct("f", atom("a")), struct("f", atom("b")))

    def test_ground_identical(self):
        assert variant(atom("a"), atom("a"))

    def test_mapping_must_be_bijective(self):
        assert not variant(struct("f", var("X"), var("Y")),
                           struct("f", var("A"), var("A")))


# -- property-based ----------------------------------------------------------

ground_terms = st.recursive(
    st.one_of(st.integers(0, 5).map(number), st.sampled_from("abc").map(atom)),
    lambda children: st.builds(
        lambda args: struct("f", *args), st.lists(children, min_size=1, max_size=2)),
    max_leaves=8,
)

terms_with_vars = st.recursive(
    st.one_of(st.integers(0, 5).map(number),
              st.sampled_from("ab").map(atom),
              st.sampled_from(["X", "Y", "Z"]).map(var)),
    lambda children: st.builds(
        lambda args: struct("f", *args), st.lists(children, min_size=1, max_size=2)),
    max_leaves=8,
)


@given(ground_terms)
def test_property_ground_self_unification(term):
    """A ground term unifies with itself with an empty unifier."""
    subst = unify(term, term)
    assert subst is not None and len(subst) == 0


@given(terms_with_vars, ground_terms)
def test_property_unifier_makes_terms_equal(pattern, instance):
    """Whenever unification succeeds, applying the unifier equalises."""
    subst = unify(pattern, instance)
    if subst is not None:
        assert subst.resolve(pattern) == subst.resolve(instance)


@given(terms_with_vars, terms_with_vars)
def test_property_unification_symmetric_in_success(left, right):
    assert (unify(left, right) is None) == (unify(right, left) is None)


@given(terms_with_vars, ground_terms)
def test_property_match_implies_unify(pattern, instance):
    if match(pattern, instance) is not None:
        assert unify(pattern, instance) is not None


@given(terms_with_vars)
def test_property_variant_reflexive(term):
    assert variant(term, term)


@given(terms_with_vars)
def test_property_renaming_yields_variant(term):
    from repro.datalog.terms import rename_term

    assert variant(term, rename_term(term, {}))
