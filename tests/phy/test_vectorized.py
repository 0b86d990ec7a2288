"""Unit tests for the vectorized kernel's per-node epoch semantics.

Complements ``test_linkcache.py`` (which covers the facade API): these
tests pin the *granularity* of invalidation — moving one node must dirty
exactly that node's row and column, a static deployment must compute each
pair exactly once, and mid-run registration must match the uncached path.
"""

import numpy as np
import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel


def build_channel(positions, **channel_kwargs):
    sim = Simulator()
    channel = AcousticChannel(sim, **channel_kwargs)
    holder = list(positions)
    for node_id in range(len(holder)):
        channel.create_modem(node_id, lambda i=node_id: holder[i])
    return sim, channel, holder


def warm_all_rows(channel):
    for node_id in channel.node_ids:
        channel.link_cache.broadcast_row(node_id)


class TestPerNodeEpochs:
    def test_moving_one_node_dirties_exactly_its_row_and_column(self):
        positions = [
            Position(0, 0, 0),
            Position(1000, 0, 0),
            Position(0, 1000, 0),
            Position(700, 700, 0),
        ]
        _, channel, holder = build_channel(positions)
        warm_all_rows(channel)
        stats = channel.stats
        n = len(positions)
        assert stats.cache_misses == n * (n - 1)
        assert stats.vector_batches == n
        assert stats.rows_refreshed == 0

        holder[2] = Position(0, 1200, 0)
        channel.note_position_change(2)

        # Row 0: only the (0, 2) pair is stale -> one miss, n-2 hits.
        misses0, hits0 = stats.cache_misses, stats.cache_hits
        channel.link_cache.broadcast_row(0)
        assert stats.cache_misses == misses0 + 1
        assert stats.cache_hits == hits0 + (n - 2)
        assert stats.rows_refreshed == 1

        # Row 2 (the moved node): every pair is stale -> n-1 misses.
        misses2 = stats.cache_misses
        channel.link_cache.broadcast_row(2)
        assert stats.cache_misses == misses2 + (n - 1)
        assert stats.rows_refreshed == 2

        # Second query of row 0 with nothing moved: pure fast-path hits.
        hits_before = stats.cache_hits
        misses_before = stats.cache_misses
        channel.link_cache.broadcast_row(0)
        assert stats.cache_hits == hits_before + (n - 1)
        assert stats.cache_misses == misses_before
        assert stats.rows_refreshed == 2

    def test_refresh_leaves_unmoved_entries_bit_identical(self):
        positions = [
            Position(0, 0, 0),
            Position(900, 100, 50),
            Position(100, 1100, 0),
            Position(650, 720, 10),
        ]
        _, channel, holder = build_channel(positions)
        row = channel.link_cache.broadcast_row(0)
        before_dist = row.distance_m.copy()
        before_delay = row.delay_s.copy()
        before_level = row.level_db.copy()

        holder[2] = Position(100, 1300, 0)
        channel.note_position_change(2)
        row = channel.link_cache.broadcast_row(0)

        for j in (1, 3):  # pairs not touching the moved node: exact reuse
            assert row.distance_m[j] == before_dist[j]
            assert row.delay_s[j] == before_delay[j]
            assert row.level_db[j] == before_level[j]
        assert row.distance_m[2] != before_dist[2]
        assert row.distance_m[2] == pytest.approx(
            Position(0, 0, 0).distance_to(holder[2])
        )

    def test_static_deployment_computes_each_pair_exactly_once(self):
        positions = [Position(0, 0, 0), Position(800, 0, 0), Position(0, 900, 100)]
        _, channel, _ = build_channel(positions)
        n = len(positions)
        for _ in range(4):  # repeated broadcasts from every node
            warm_all_rows(channel)
        stats = channel.stats
        assert stats.cache_misses == n * (n - 1)  # one compute per directed pair
        assert stats.vector_batches == n  # one build per row, no refreshes
        assert stats.rows_refreshed == 0
        assert stats.cache_hits == 3 * n * (n - 1)

    def test_global_invalidate_dirties_everything(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 500, 0)]
        _, channel, holder = build_channel(positions)
        warm_all_rows(channel)
        holder[0] = Position(10, 0, 0)
        holder[1] = Position(990, 0, 0)
        channel.note_position_change()  # out-of-band move: no node_id known
        misses = channel.stats.cache_misses
        n = len(positions)
        warm_all_rows(channel)
        assert channel.stats.cache_misses == misses + n * (n - 1)
        assert channel.distance_m(0, 1) == pytest.approx(980.0)


class TestMidRunRegistration:
    def test_new_modem_visible_on_next_broadcast(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0)]
        _, channel, holder = build_channel(positions)
        row = channel.link_cache.broadcast_row(0)
        assert row.n == 2

        holder.append(Position(0, 700, 0))
        channel.create_modem(2, lambda: holder[2])
        row = channel.link_cache.broadcast_row(0)
        assert row.n == 3
        assert channel.neighbors_of(0) == (1, 2)

    def test_registration_matches_uncached_channel(self):
        positions = [Position(0, 0, 0), Position(1200, 0, 0)]
        _, cached, cached_holder = build_channel(positions)
        _, uncached, uncached_holder = build_channel(positions, use_link_cache=False)
        warm_all_rows(cached)

        late = Position(300, 800, 40)
        for channel, holder in ((cached, cached_holder), (uncached, uncached_holder)):
            holder.append(late)
            channel.create_modem(2, lambda h=holder: h[2])

        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                assert cached.distance_m(a, b) == uncached.distance_m(a, b)
                assert cached.propagation_delay_s(a, b) == uncached.propagation_delay_s(a, b)
            assert cached.neighbors_of(a) == uncached.neighbors_of(a)


class TestKernelGrowth:
    def test_array_growth_past_initial_capacity(self):
        # The kernel starts with capacity 64; registering past it must
        # preserve coordinates and epochs across the array doubling.
        positions = [Position(float(i), 0, 0) for i in range(100)]
        _, channel, _ = build_channel(positions)
        kernel = channel.link_cache._kernel
        assert kernel._n == 100
        assert channel.distance_m(0, 99) == pytest.approx(99.0)
        np.testing.assert_array_equal(kernel._epoch[:100], np.zeros(100))

    def test_self_pair_never_delivered(self):
        positions = [Position(0, 0, 0), Position(100, 0, 0)]
        _, channel, _ = build_channel(positions)
        row = channel.link_cache.broadcast_row(0)
        targets = channel.link_cache.deliveries(row)
        assert [t[0] for t in targets] == [1]
        assert not row.in_reach[0]
        assert not row.in_decode[0]
