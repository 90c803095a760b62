"""The frozen value records the package's types are built from."""

import functools

import pytest

from orientlight import (
    Certificate,
    Graph,
    Orientation,
    SolveStats,
    VertexWeights,
    solve_with_stats,
)
from orientlight.matching import Matching
from orientlight.reduction import build_gprime
from orientlight._record import field, record, replace

K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))


@record
class AllDefaults:
    """A record whose every field, the first included, has a default."""

    first: int = 20
    second: int = 18


def every_type():
    sol, stats = solve_with_stats(K3)
    return [
        K3,
        sol.orientation,
        VertexWeights((1, 2, 3)),
        Matching.empty(K3),
        AllDefaults(),
        stats.reduction,
        sol.certificate,
        sol,
        stats,
    ]


@pytest.mark.parametrize("obj", every_type(), ids=lambda obj: type(obj).__name__)
class TestFrozen:
    def test_assigning_a_field_raises(self, obj):
        name = obj.__record_fields__[0]
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        assert getattr(obj, name) is before

    def test_deleting_a_field_raises(self, obj):
        name = obj.__record_fields__[0]
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)

    def test_new_attributes_are_refused_too(self, obj):
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_a_copy_is_equal_with_an_equal_hash(self, obj):
        copy = replace(obj)
        assert copy is not obj
        assert copy == obj and not copy != obj
        assert hash(copy) == hash(obj)


class TestValueSemantics:
    def test_equal_fields_give_equal_objects(self):
        a = Graph(3, ((1, 0), (2, 1)))
        b = Graph(3, ((0, 1), (1, 2)))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert Certificate(4, 6, 0) == Certificate(4, 6, 0)
        assert Certificate(4, 6, 0) != Certificate(4, 6, 1)

    def test_different_classes_never_compare_equal(self):
        @record
        class First:
            x: int

        @record
        class Second:
            x: int

        assert First(1) != Second(1)
        assert First(1) == First(1)
        assert Orientation((0, 1)) != ((0, 1),)
        assert AllDefaults(3, 3) != (3, 3)

    def test_stats_equality_and_repr_ignore_the_reduction(self):
        _, stats = solve_with_stats(K3)
        other = replace(stats, reduction=build_gprime(Graph(2, ((0, 1),))))
        assert other == stats
        assert hash(other) == hash(stats)
        assert "reduction" not in repr(stats)
        assert repr(other) == repr(stats)
        assert replace(stats, n=4) != stats

    def test_repr_names_the_type_and_every_shown_field(self):
        assert repr(VertexWeights((1, 2), 10)) == "VertexWeights(units=(1, 2), scale=10)"
        assert repr(Certificate(4, 6, 0)) == (
            "Certificate(matching_value=4, constant=6, offset=0)"
        )

    def test_keyword_construction_and_defaults(self):
        assert Graph(edges=((0, 1),), n=2) == Graph(2, ((0, 1),))
        assert VertexWeights((1, 2)).scale == 1
        assert VertexWeights(units=(1, 2), scale=10).scale == 10
        assert AllDefaults(second=5) == AllDefaults(20, 5)
        with pytest.raises(TypeError):
            Graph(2)
        with pytest.raises(TypeError):
            Graph(2, (), n=2)

    def test_replace_runs_the_validation_again(self):
        g = replace(K3, edges=((2, 0),))
        assert g.edges == ((0, 2),)
        with pytest.raises(ValueError, match="scale"):
            replace(VertexWeights((1,)), scale=0)
        with pytest.raises(TypeError):
            replace(K3, colour=1)

    def test_adjacency_is_computed_once(self):
        g = Graph(3, ((0, 1), (1, 2)))
        first = g.adjacency
        assert first == ((0,), (0, 1), (1,))
        assert g.adjacency is first
        assert g.degree(1) == 2
        assert g.adjacency is first

    def test_the_instance_dict_holds_exactly_the_fields(self):
        # replace constructs anew: every_type's K3 has read its adjacency
        for obj in every_type():
            assert list(vars(replace(obj))) == list(obj.__record_fields__)

    def test_adjacency_is_stored_in_the_instance_on_first_read(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert "adjacency" not in vars(g)
        first = g.adjacency
        assert vars(g)["adjacency"] is first
        assert list(vars(g)) == ["n", "edges", "adjacency"]

    def test_adjacency_read_on_the_class_is_the_descriptor(self):
        assert isinstance(Graph.adjacency, functools.cached_property)
        assert Graph.adjacency.__doc__.startswith("Per-vertex tuple of incident edge indices")

    def test_replace_builds_a_fresh_adjacency(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.adjacency == ((0,), (0, 1), (1,))
        h = replace(g, edges=((0, 2),))
        assert "adjacency" not in vars(h)
        assert h.adjacency == ((0,), (), (0,))
        assert g.adjacency == ((0,), (0, 1), (1,))


class TestDecorator:
    def test_hidden_fields_and_defaults(self):
        @record
        class Point:
            x: int
            note: str = field()
            y: int = 0

        assert Point(1, "a") == Point(1, "moved", 0)
        assert hash(Point(1, "a")) == hash(Point(1, "b"))
        assert Point(1, "a") != Point(1, "a", 2)
        assert repr(Point(1, "hidden", 2)).endswith(".<locals>.Point(x=1, y=2)")
        assert Point.__record_fields__ == ("x", "note", "y")

    def test_one_or_no_shown_field_compares_as_a_tuple(self):
        @record
        class One:
            x: float

        @record
        class Unshown:
            note: str = field()

        nan = float("nan")
        assert One(nan) == One(nan)  # tuples compare an element to itself as equal
        assert One(1.5) != One(2.5)
        assert hash(One(1.5)) == hash((1.5,))
        assert repr(One(2)).endswith(".One(x=2)")
        assert Unshown("a") == Unshown("b")
        assert hash(Unshown("a")) == hash(())
        assert repr(Unshown("a")).endswith(".Unshown()")

    def test_methods_carry_the_class_qualname(self):
        for method in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert getattr(Graph, method).__qualname__ == f"Graph.{method}"

    def test_a_class_without_annotated_fields_is_refused(self):
        class Empty:
            x = 1

        with pytest.raises(TypeError, match="no annotated fields"):
            record(Empty)

    def test_a_field_without_a_default_leaves_no_class_attribute(self):
        assert not hasattr(SolveStats, "reduction")
        assert VertexWeights.scale == 1

    def test_post_init_runs_after_every_field_is_set(self):
        seen = []

        @record
        class Pair:
            a: int
            b: int

            def __post_init__(self):
                seen.append((self.a, self.b))

        Pair(1, b=2)
        assert seen == [(1, 2)]

