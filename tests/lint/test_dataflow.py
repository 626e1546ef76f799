"""Data-flow primitives: backward origin resolution."""

from __future__ import annotations

import ast

from repro.lint.dataflow import OriginResolver
from repro.lint.graph import CallGraph, ModuleGraph

from .test_graph import build_graph


def resolver_for(graph: ModuleGraph) -> OriginResolver:
    return OriginResolver(graph, CallGraph(graph))


def origins_of_name(graph, function_key, name):
    """Origins of the first Load of ``name`` inside the function."""
    resolver = resolver_for(graph)
    function = graph.functions[function_key]
    for node in ast.walk(function.node):
        if isinstance(node, ast.Name) and node.id == name:
            return resolver.origins(function, node)
    raise AssertionError(f"no read of {name!r} in {function_key}")


class TestOriginResolver:
    def test_param_default_used_when_no_caller(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                def make(seed=7):
                    return seed
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:make", "seed")
        assert {(o.kind, o.value) for o in found if o.kind == "literal"} == {
            ("literal", 7)
        }
        # With no call site, the parameter leaf is kept too (the value
        # could come from anywhere).
        assert any(o.kind == "param" for o in found)

    def test_call_site_argument_beats_default(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                def make(seed=7):
                    return seed

                def outer():
                    return make(123)
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:make", "seed")
        assert {o.value for o in found if o.kind == "literal"} == {123}

    def test_partial_bound_argument_reaches_parameter(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                import functools

                def work(seed, scale):
                    return seed * scale

                def launch():
                    bound = functools.partial(work, 99)
                    return bound(2)
                """,
            }
        )
        seed = origins_of_name(graph, "repro.core.a:work", "seed")
        assert {o.value for o in seed if o.kind == "literal"} == {99}
        scale = origins_of_name(graph, "repro.core.a:work", "scale")
        assert {o.value for o in scale if o.kind == "literal"} == {2}

    def test_keyword_only_param_binds_by_keyword_and_default(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                def make(*, seed=5):
                    return seed

                def explicit():
                    return make(seed=11)
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:make", "seed")
        assert {o.value for o in found if o.kind == "literal"} == {11}

    def test_keyword_only_default_when_not_passed(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                def make(*, seed=5):
                    return seed

                def implicit():
                    return make()
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:make", "seed")
        assert {o.value for o in found if o.kind == "literal"} == {5}

    def test_interprocedural_chain_through_local_and_call(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                SEED = 41

                def derive():
                    return SEED + 1

                def middle(seed):
                    return seed

                def top():
                    value = derive()
                    return middle(value)
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:middle", "seed")
        assert ("module-const", 41) in {
            (o.kind, o.value) for o in found
        }

    def test_self_attribute_chases_into_init(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                class Box:
                    def __init__(self, seed):
                        self.seed = seed

                    def draw(self):
                        return self.seed
                """,
            }
        )
        resolver = resolver_for(graph)
        draw = graph.functions["repro.core.a:Box.draw"]
        ret = draw.node.body[0]
        found = resolver.origins(draw, ret.value)
        assert any(o.kind == "param" and o.detail.endswith(":seed") for o in found)

    def test_unresolved_external_call_is_a_call_leaf(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                import time

                def stamp():
                    now = time.time()
                    return now
                """,
            }
        )
        found = origins_of_name(graph, "repro.core.a:stamp", "now")
        assert {o.detail for o in found if o.kind == "call"} == {"time.time"}

    def test_callers_with_param_walks_transitively(self):
        graph = build_graph(
            {
                "repro.core.a": """\
                def leaf():
                    return 1

                def mid():
                    return leaf()

                def root(data, rng):
                    return mid()
                """,
            }
        )
        resolver = resolver_for(graph)
        leaf = graph.functions["repro.core.a:leaf"]
        caller = resolver.callers_with_param(leaf, frozenset({"rng"}))
        assert caller is not None and caller.key == "repro.core.a:root"
        assert (
            resolver.callers_with_param(leaf, frozenset({"absent"})) is None
        )
