"""Unit tests for repro.network.tree."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.tree import (
    RoutingTree,
    tree_from_parents,
    tree_multi_reparented,
)


class TestTreeFromParents:
    def test_small_tree_structure(self, small_tree: RoutingTree):
        assert small_tree.root == 0
        assert small_tree.num_vertices == 8
        assert small_tree.num_sensor_nodes == 7
        assert small_tree.children[0] == (1, 2)
        assert small_tree.children[1] == (3, 4)
        assert small_tree.children[4] == (6,)
        assert small_tree.is_leaf(3)
        assert not small_tree.is_leaf(2)

    def test_depths(self, small_tree: RoutingTree):
        assert small_tree.depth[0] == 0
        assert small_tree.depth[1] == small_tree.depth[2] == 1
        assert small_tree.depth[6] == 3

    def test_subtree_sizes(self, small_tree: RoutingTree):
        assert small_tree.subtree_size[0] == 8
        assert small_tree.subtree_size[1] == 4  # 1, 3, 4, 6
        assert small_tree.subtree_size[2] == 3  # 2, 5, 7
        assert small_tree.subtree_size[6] == 1

    def test_bottom_up_order_children_before_parents(self, small_tree: RoutingTree):
        position = {v: i for i, v in enumerate(small_tree.bottom_up_order)}
        for vertex in range(small_tree.num_vertices):
            for child in small_tree.children[vertex]:
                assert position[child] < position[vertex]

    def test_top_down_is_reverse_of_bottom_up(self, small_tree: RoutingTree):
        assert small_tree.top_down_order == tuple(
            reversed(small_tree.bottom_up_order)
        )

    def test_path_to_root(self, small_tree: RoutingTree):
        assert small_tree.path_to_root(6) == [6, 4, 1, 0]
        assert small_tree.path_to_root(0) == [0]

    def test_sensor_nodes_excludes_root(self, small_tree: RoutingTree):
        assert 0 not in small_tree.sensor_nodes
        assert len(small_tree.sensor_nodes) == 7

    def test_internal_vertices(self, small_tree: RoutingTree):
        assert set(small_tree.internal_vertices()) == {0, 1, 2, 4}

    def test_link_distances_from_positions(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        tree = tree_from_parents(0, [-1, 0], positions)
        assert tree.link_distance[0] == 0.0
        assert tree.link_distance[1] == pytest.approx(5.0)


class TestValidation:
    def test_rejects_cycle(self):
        # 1 and 2 form a cycle unreachable from root 0.
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 2, 1])

    def test_rejects_self_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 1])

    def test_rejects_unreachable_vertex(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 0, -1])

    def test_rejects_root_with_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [1, 0])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 5])

    def test_rejects_out_of_range_root(self):
        with pytest.raises(TopologyError):
            tree_from_parents(3, [-1, 0])


def _sensor_nodes_by_definition(tree: RoutingTree) -> tuple[int, ...]:
    return tuple(
        v
        for v in range(tree.num_vertices)
        if v != tree.root and v not in tree.relays
    )


class TestCachedViews:
    """``sensor_nodes``/``top_down_order`` are derived once per tree."""

    @staticmethod
    def assert_views_match_definitions(tree: RoutingTree) -> None:
        assert tree.sensor_nodes == _sensor_nodes_by_definition(tree)
        assert tree.top_down_order == tuple(reversed(tree.bottom_up_order))

    def test_repeated_access_returns_the_same_object(self, small_tree):
        assert small_tree.sensor_nodes is small_tree.sensor_nodes
        assert small_tree.top_down_order is small_tree.top_down_order

    def test_views_follow_with_relays(self, small_tree):
        self.assert_views_match_definitions(small_tree)  # warm the cache
        relayed = small_tree.with_relays({2, 4})
        self.assert_views_match_definitions(relayed)
        assert 2 not in relayed.sensor_nodes and 4 not in relayed.sensor_nodes
        assert small_tree.sensor_nodes == (1, 2, 3, 4, 5, 6, 7)

    @pytest.mark.parametrize("new_root", [None, 1])
    def test_views_follow_multi_reparenting(self, small_tree, new_root):
        self.assert_views_match_definitions(small_tree)  # warm the cache
        relayed = small_tree.with_relays({5})
        self.assert_views_match_definitions(relayed)
        if new_root is None:
            moves = [(6, 3, 1.0), (7, 1, 2.0)]
        else:
            # Reverse the 0 -> 1 edge so 1 becomes the sink.
            moves = [(0, 1, 1.0), (6, 3, 1.0)]
        moved = tree_multi_reparented(relayed, moves, new_root=new_root)
        self.assert_views_match_definitions(moved)
        assert moved.root == (0 if new_root is None else new_root)
        assert moved.root not in moved.sensor_nodes

    def test_dataclass_equality_ignores_the_cache(self, small_tree):
        twin = tree_from_parents(small_tree.root, list(small_tree.parent))
        twin = replace(twin, link_distance=small_tree.link_distance)
        _ = small_tree.sensor_nodes, small_tree.top_down_order  # cached
        assert "sensor_nodes" not in vars(twin)
        assert twin == small_tree
        assert hash(twin) == hash(small_tree)
        assert repr(twin) == repr(small_tree)
