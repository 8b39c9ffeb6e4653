import pytest
from hypothesis import given, strategies as st

from gradimpact import ArgumentationFramework, UnknownArgumentError, UnknownAttackError


def small_frameworks(max_args: int = 5, self_attacks: bool = True):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_args))
        names = [f"a{i}" for i in range(1, n + 1)]
        pairs = [
            (s, t) for s in names for t in names if self_attacks or s != t
        ]
        attacks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return ArgumentationFramework.of(names, attacks)

    return build()


def test_of_sorts_and_deduplicates():
    af = ArgumentationFramework.of(
        ["b", "a", "b"], [("b", "a"), ("b", "a"), ("a", "b")]
    )
    assert af.arguments == ("a", "b")
    assert af.attacks == (("a", "b"), ("b", "a"))


def test_of_rejects_unknown_endpoints_and_empty_names():
    with pytest.raises(UnknownArgumentError):
        ArgumentationFramework.of(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        ArgumentationFramework.of(["a", ""], [])


def test_of_coerces_argument_ids_like_attack_endpoints():
    numeric = ArgumentationFramework.of([1, 2], [(1, 2)])
    assert numeric == ArgumentationFramework.of(["1", "2"], [("1", "2")])
    assert ArgumentationFramework.of([0, 1]).arguments == ("0", "1")


def test_adjacency_queries(showcase):
    assert "a4" in showcase
    assert "z" not in showcase
    assert showcase.has_attack("a3", "a4")
    assert not showcase.has_attack("a4", "a3")
    assert showcase.attackers("a4") == ("a3", "a5", "a8")
    assert showcase.attacks_on("a4") == (("a3", "a4"), ("a5", "a4"), ("a8", "a4"))
    assert showcase.attacked_by("a1") == ("a2", "a3")
    assert showcase.attacked_by("a4") == ()
    assert showcase.in_degree("a4") == 3
    assert showcase.in_degree("a6") == 0
    assert showcase.max_in_degree() == 3
    assert len(showcase) == 11
    assert list(showcase) == sorted(showcase.arguments)


def test_queries_reject_unknown_arguments(showcase):
    with pytest.raises(UnknownArgumentError):
        showcase.attackers("nope")
    with pytest.raises(UnknownArgumentError):
        showcase.attacked_by("nope")
    with pytest.raises(UnknownArgumentError):
        showcase.external_attackers(["a4", "nope"])


def test_external_attackers_and_attacks(showcase):
    assert showcase.external_attackers(["a8"]) == ("a9",)
    assert set(showcase.external_attacks(["a8", "a10"])) == {
        ("a9", "a8"),
        ("a9", "a10"),
    }
    # a4 attacks nothing, so a set containing it only collects attacks into it
    assert showcase.external_attacks(["a4"]) == (
        ("a3", "a4"),
        ("a5", "a4"),
        ("a8", "a4"),
    )
    assert showcase.external_attackers(showcase.arguments) == ()


def test_has_path_needs_at_least_one_attack(showcase):
    assert showcase.has_path("a9", "a4")
    assert showcase.has_path("a1", "a1")  # through the two-cycle with a2
    assert not showcase.has_path("a4", "a4")
    assert not showcase.has_path("a4", "a1")
    assert not showcase.has_path("a11", "a4")


def test_attack_structure_collects_every_upstream_argument(showcase):
    assert showcase.attack_structure("a4") == (
        "a1", "a10", "a2", "a3", "a4", "a5", "a6", "a8", "a9",
    )
    assert showcase.attack_structure("a11") == ("a11",)
    assert showcase.attack_structure("a7") == ("a10", "a7", "a8", "a9")


def test_restrict_keeps_only_induced_attacks(showcase):
    sub = showcase.restrict(["a1", "a2", "a4"])
    assert sub.arguments == ("a1", "a2", "a4")
    assert sub.attacks == (("a1", "a2"), ("a2", "a1"))


def test_delete_arguments_drops_attacks_touching_the_subject(showcase):
    reduced = showcase.delete_arguments(["a8", "a10"], "a4")
    assert "a8" not in reduced
    assert "a10" not in reduced
    assert "a4" in reduced
    assert not any("a8" in c or "a10" in c for c in reduced.attacks)
    # the kept argument also loses its ties to the removed set
    kept = showcase.delete_arguments(["a4", "a8"], "a4")
    assert "a4" in kept and "a8" not in kept
    assert kept.attackers("a4") == ()


def test_delete_attacks_checks_membership(showcase):
    fewer = showcase.delete_attacks([("a3", "a4")])
    assert fewer.attackers("a4") == ("a5", "a8")
    assert fewer.arguments == showcase.arguments
    with pytest.raises(UnknownAttackError):
        showcase.delete_attacks([("a4", "a3")])


def test_rename_is_bijective():
    af = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    renamed = af.rename({"a": "x", "b": "y"})
    assert renamed.attacks == (("x", "y"),)
    with pytest.raises(ValueError):
        af.rename({"a": "x", "b": "x"})
    with pytest.raises(UnknownArgumentError):
        af.rename({"a": "x"})


def test_union_merges_componentwise():
    left = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    right = ArgumentationFramework.of(["b", "c"], [("b", "c")])
    merged = left.union(right)
    assert merged.arguments == ("a", "b", "c")
    assert merged.attacks == (("a", "b"), ("b", "c"))


def test_dict_round_trip(showcase):
    assert ArgumentationFramework.from_dict(showcase.to_dict()) == showcase


def test_value_semantics():
    one = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    two = ArgumentationFramework.of(["b", "a"], [("a", "b")])
    assert one == two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


@given(small_frameworks())
def test_identity_operations_return_equal_frameworks(af):
    assert af.union(af) == af
    assert af.restrict(af.arguments) == af
    assert af.delete_attacks([]) == af


@given(small_frameworks())
def test_restriction_is_a_subgraph(af):
    subject = af.arguments[::2]
    sub = af.restrict(subject)
    assert set(sub.arguments) <= set(subject)
    for s, t in sub.attacks:
        assert af.has_attack(s, t)
