"""Spatial-hash reach culling and delta-epoch edge cases.

The grid and the movement-bounded skip are pure *culls*: they may only
avoid computing entries whose masks are provably ``False``, never change a
computed value.  These tests pin the edges where that proof has to hold —
cell boundaries, nodes outside the nominal deployment volume, membership
changes (registration, cell crossings, neighborhood departures) — plus the
on-demand point-query path and the new counters.
"""

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


def delivered_ids(channel, tx_id):
    cache = channel.link_cache
    row = cache.broadcast_row(tx_id)
    return [t[0] for t in cache.deliveries(row)]


class TestCellBoundaries:
    def test_receiver_exactly_at_reach_is_delivered(self):
        # reach == max_range == cell side == 1500: the pair distance sits
        # exactly on both the cell boundary and the mask boundary.
        _, channel, _ = build_channel([Position(0, 0, 0), Position(1500.0, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        assert channel.neighbors_of(0) == (1,)

    def test_receiver_one_ulp_past_reach_is_culled(self):
        import math

        past = math.nextafter(1500.0, 2000.0)
        _, channel, _ = build_channel([Position(0, 0, 0), Position(past, 0, 0)])
        assert delivered_ids(channel, 0) == []
        assert channel.link_cache.link(0, 1).in_reach is False

    def test_node_on_cell_corner_is_binned_once(self):
        # (1500, 1500, 0) sits on a corner shared by four cells; floor
        # binning must place it in exactly one, and the 3x3x3 gather from a
        # neighbor cell must still see it.
        _, channel, _ = build_channel(
            [Position(1499.0, 1499.0, 0), Position(1500.0, 1500.0, 0)]
        )
        cache = channel.link_cache
        assert sum(len(v) for v in cache._cells.values()) == 2
        assert delivered_ids(channel, 0) == [1]

    def test_nodes_outside_deployment_volume(self):
        # Negative coordinates and far-out positions must bin fine (floor
        # division handles negatives) and stay bit-exact.
        positions = [
            Position(-4000.0, -250.0, 0),
            Position(-3000.0, 0, 0),
            Position(50_000.0, 0, 0),
        ]
        _, channel, _ = build_channel(positions)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 2) == pytest.approx(
            positions[0].distance_to(positions[2])
        )


class TestMembershipChanges:
    def test_grid_rebuild_after_add_node(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(800, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        holder.append(Position(0, 900, 0))
        channel.create_modem(2, lambda: holder[2])
        assert delivered_ids(channel, 0) == [1, 2]
        cache = channel.link_cache
        assert sum(len(v) for v in cache._cells.values()) == 3

    def test_departure_from_neighborhood_clears_reach(self):
        # A node whose cell leaves the 3x3x3 neighborhood must stop being
        # delivered to even though its pair entry is never recomputed.
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        holder[1] = Position(20_000.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []
        # And re-entry recomputes from the never-computed sentinel.
        holder[1] = Position(1200.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 1) == pytest.approx(1200.0)

    def test_cell_crossing_within_neighborhood(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1400, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        # Crossing into the next cell (cells are 1500 m) while staying in
        # reach must keep the delivery and update the pair exactly.
        holder[1] = Position(1501.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []  # 1501 > reach: culled by mask
        holder[1] = Position(1499.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 1) == pytest.approx(1499.0)

    def test_global_invalidate_rebins_everyone(self):
        _, channel, holder = build_channel(
            [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 1000, 0)]
        )
        assert delivered_ids(channel, 0) == [1, 2]
        holder[1] = Position(30_000.0, 0, 0)
        holder[2] = Position(0, 1100.0, 0)
        channel.note_position_change()  # out-of-band: no node id known
        assert delivered_ids(channel, 0) == [2]
        assert channel.distance_m(0, 2) == pytest.approx(1100.0)


class TestDeltaEpochs:
    # The skip only sees candidates, so its far pairs sit in the next cell
    # (1500-3000 m at reach 1500): inside the 3x3x3 neighborhood but out of
    # reach.  Farther nodes leave the candidate set and are never stale.

    def test_small_motion_of_far_pair_is_skipped(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(2900.0, 0, 0)])
        assert delivered_ids(channel, 0) == []
        misses = channel.stats.cache_misses
        holder[1] = Position(2910.0, 0, 0)  # 10 m of motion, 1400 m margin
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []
        assert channel.stats.rows_skipped_delta == 1
        assert channel.stats.cache_misses == misses  # no recompute happened

    def test_point_query_after_skip_recomputes_on_demand(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(2900.0, 0, 0)])
        delivered_ids(channel, 0)
        holder[1] = Position(2910.0, 0, 0)
        channel.note_position_change(1)
        delivered_ids(channel, 0)  # skip leaves the pair's scalars stale
        assert channel.stats.rows_skipped_delta == 1
        assert channel.distance_m(0, 1) == pytest.approx(2910.0)
        assert channel.propagation_delay_s(0, 1) == pytest.approx(2910.0 / 1500.0)

    def test_accumulated_motion_forces_recompute(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(2900.0, 0, 0)])
        delivered_ids(channel, 0)
        # Many small hops: each individually under the margin, the sum not.
        for step in range(1, 19):
            holder[1] = Position(2900.0 - step * 100.0, 0, 0)
            channel.note_position_change(1)
            assert (delivered_ids(channel, 0) == [1]) == (
                holder[1].x <= 1500.0
            )
        assert channel.distance_m(0, 1) == pytest.approx(1100.0)

    def test_in_reach_pairs_never_skipped(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1000.0, 0, 0)])
        delivered_ids(channel, 0)
        holder[1] = Position(1001.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.stats.rows_skipped_delta == 0
        assert channel.distance_m(0, 1) == pytest.approx(1001.0)

    def test_point_query_after_move_is_exact(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(800.0, 0, 0)])
        delivered_ids(channel, 0)
        holder[1] = Position(790.0, 0, 0)
        channel.note_position_change(1)
        assert channel.distance_m(0, 1) == pytest.approx(790.0)
        assert channel.propagation_delay_s(0, 1) == pytest.approx(790.0 / 1500.0)

    def test_annulus_pair_keeps_masks_after_small_move(self):
        # reach = 2 x 1500 = 3000: a pair at 2000 m is in interference reach
        # but not decodable, and a small move keeps it that way.
        _, channel, holder = build_channel(
            [Position(0, 0, 0), Position(2000.0, 0, 0)],
            interference_range_factor=2.0,
        )
        assert delivered_ids(channel, 0) == [1]  # interference-only target
        assert channel.link_cache.link(0, 1).in_decode_range is False
        holder[1] = Position(2010.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.link_cache.link(0, 1).in_decode_range is False
        assert channel.distance_m(0, 1) == pytest.approx(2010.0)

    def test_boundary_crossing_forces_recompute(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1400.0, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        # 300 m of motion against 100 m of margin: the pair recomputes and
        # leaves reach.
        holder[1] = Position(1700.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []
        # And crossing back in recomputes again (margin 200 < motion 300).
        holder[1] = Position(1450.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 1) == pytest.approx(1450.0)


class TestGridCounters:
    def test_grid_candidates_accumulates_per_broadcast(self):
        from repro.phy.frame import FrameType, control_frame

        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(40_000, 0, 0)]
        sim, channel, _ = build_channel(positions)
        sim.schedule(
            0.0, channel.modem_of(0).transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
        )
        sim.run()
        # Node 2 is far outside the 3x3x3 neighborhood of node 0's cell:
        # candidate set is {0, 1} -> 1 candidate excluding self.
        assert channel.stats.broadcasts == 1
        assert channel.stats.grid_candidates == 1
        assert channel.stats.grid_cells == 2

    def test_grid_disabled_counts_full_scan_width(self):
        from repro.phy.frame import FrameType, control_frame

        # The scalar reference path has no grid: it scans every receiver,
        # so deliveries plus out-of-range skips cover all n - 1 of them,
        # and the grid counters stay 0.
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(40_000, 0, 0)]
        sim, channel, _ = build_channel(positions, use_link_cache=False)
        sim.schedule(
            0.0, channel.modem_of(0).transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
        )
        sim.run()
        stats = channel.stats
        assert stats.deliveries + stats.out_of_range_skips == len(positions) - 1
        assert stats.grid_candidates == 0
        assert stats.grid_cells == 0
