"""Planner block-to-element expansion (`_element_sets`) edge cases."""

from __future__ import annotations

from repro.cachier.mapping import ParamEnv
from repro.cachier.placement import Planner
from repro.mem.labels import ArrayLabel, LabelTable
from repro.mem.layout import AddressSpace


def make_planner(nbytes=64, shape=(8,), elem=8):
    space = AddressSpace(block_size=32)
    labels = LabelTable()
    labels.add(ArrayLabel(
        region=space.allocate("A", nbytes), shape=shape, elem_size=elem,
    ))
    planner = Planner(
        labels=labels, env=ParamEnv(lambda n: {}, 1), entry="main",
        cache_size=1024, block_size=32,
    )
    return planner, labels.get("A")


def block_flats(planner, label, base):
    """The element flat indices ``planner`` expands one block into."""
    return planner._element_sets(label, {0: {base}})[0]


class TestBlockFlats:
    def test_interior_block(self):
        planner, label = make_planner()
        base = label.region.base
        assert block_flats(planner, label, base) == {0, 1, 2, 3}
        assert block_flats(planner, label, base + 32) == {4, 5, 6, 7}

    def test_tail_block_clipped_to_label_span(self):
        # Region is 64B (2 blocks) but the label covers only 5 elements.
        planner, label = make_planner(nbytes=64, shape=(5,))
        base = label.region.base
        assert block_flats(planner, label, base + 32) == {4}

    def test_small_elements_pack_per_block(self):
        planner, label = make_planner(nbytes=32, shape=(8,), elem=4)
        base = label.region.base
        assert block_flats(planner, label, base) == set(range(8))

    def test_block_before_region_clips_empty(self):
        planner, label = make_planner()
        # A block base below the region start contributes nothing valid.
        flats = block_flats(planner, label, label.region.base - 32)
        assert all(f < 0 or f >= label.num_elements for f in flats) or not flats
