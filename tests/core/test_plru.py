"""Tests for the tree pseudo-LRU policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plru import PseudoLRU


class TestPseudoLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            PseudoLRU(12)
        with pytest.raises(ValueError):
            PseudoLRU(1)

    def test_victim_never_most_recent(self):
        plru = PseudoLRU(8)
        for slot in range(8):
            plru.touch(slot)
            assert plru.victim() != slot

    def test_untouched_tree_has_a_victim(self):
        assert 0 <= PseudoLRU(16).victim() < 16

    def test_round_robin_touch_cycles_victims(self):
        plru = PseudoLRU(4)
        seen = set()
        for i in range(16):
            victim = plru.victim()
            seen.add(victim)
            plru.touch(victim)
        assert seen == {0, 1, 2, 3}

    def test_touch_out_of_range(self):
        with pytest.raises(IndexError):
            PseudoLRU(4).touch(4)

    def test_reset(self):
        plru = PseudoLRU(4)
        plru.touch(3)
        plru.reset()
        assert plru.victim() == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
    def test_victim_is_not_among_recent_half(self, touches):
        """Tree PLRU guarantee: the victim was not touched more recently
        than every slot on the victim's root path — in particular the
        victim is never the single most recently touched slot."""
        plru = PseudoLRU(16)
        for slot in touches:
            plru.touch(slot)
        assert plru.victim() != touches[-1]

