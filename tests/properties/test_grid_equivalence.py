"""Property tests: grid-culled results are *bit-identical* to the full scan.

The spatial hash and the movement-bounded delta-epoch skip are allowed to
avoid work, never to change answers: a culled broadcast must fan out to
exactly the receivers the full O(n) scan would have picked, with exactly
the same delays and levels, for any geometry — including nodes spread far
outside each other's 3x3x3 cell neighborhoods (where the cull actually
bites) and after arbitrary interleaved moves (where the skip's
displacement bound has to stay conservative).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel

# Wide spread (many cells at the 1500 m cell side) so candidate sets are
# real subsets; depth includes 0 so surface sinks are represented.
coord = st.floats(min_value=-20_000.0, max_value=20_000.0, allow_nan=False)
depth = st.floats(min_value=0.0, max_value=8000.0, allow_nan=False)
positions_st = st.lists(
    st.builds(Position, x=coord, y=coord, z=depth), min_size=2, max_size=10
)
moves_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
    ),
    max_size=6,
)


def build_pair(positions):
    """Grid+delta channel and full-scan channel over shared mutable geometry."""
    channels = []
    holders = []
    for culled in (True, False):
        sim = Simulator()
        channel = AcousticChannel(
            sim,
            use_link_cache=True,
            use_spatial_grid=culled,
            use_delta_epochs=culled,
            interference_range_factor=2.0,
        )
        holder = list(positions)
        for node_id in range(len(holder)):
            channel.create_modem(node_id, lambda i=node_id, h=holder: h[i])
        channels.append(channel)
        holders.append(holder)
    return channels[0], channels[1], holders[0], holders[1]


def fan_out(channel, tx_id):
    """(rx_id, delay, level) triples the broadcast path would schedule."""
    cache = channel.link_cache
    row = cache.broadcast_row(tx_id)
    return [(rx, delay, level) for rx, _, delay, level in cache.deliveries(row)]


def assert_identical(culled, full, n):
    for tx in range(n):
        assert fan_out(culled, tx) == fan_out(full, tx)
        assert culled.neighbors_of(tx) == full.neighbors_of(tx)
        for rx in range(n):
            if tx == rx:
                continue
            a = culled.link_cache.link(tx, rx)
            b = full.link_cache.link(tx, rx)
            assert (a.distance_m, a.delay_s, a.level_db) == (
                b.distance_m,
                b.delay_s,
                b.level_db,
            )
            assert (a.in_reach, a.in_decode_range) == (b.in_reach, b.in_decode_range)


@given(positions=positions_st)
@settings(max_examples=60, deadline=None)
def test_grid_culled_deliveries_equal_full_scan(positions):
    culled, full, _, _ = build_pair(positions)
    assert_identical(culled, full, len(positions))


@given(positions=positions_st, moves=moves_st)
@settings(max_examples=60, deadline=None)
def test_grid_identical_through_interleaved_moves(positions, moves):
    culled, full, holder_c, holder_f = build_pair(positions)
    n = len(positions)
    assert_identical(culled, full, n)  # warm both caches pre-move
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holder_c[idx]
        new = Position(old.x + dx, old.y + dy, old.z)
        for channel, holder in ((culled, holder_c), (full, holder_f)):
            holder[idx] = new
            channel.note_position_change(idx)
        assert_identical(culled, full, n)


# Geometry concentrated around the decode (1500 m) and interference
# (3000 m at factor 2) boundaries, with step sizes that routinely carry a
# pair across them in either direction — the regime where the out-of-reach
# displacement bound must hand pairs back to the recompute path instead of
# skipping.
near_coord = st.floats(min_value=-2500.0, max_value=2500.0, allow_nan=False)
near_positions_st = st.lists(
    st.builds(
        Position,
        x=near_coord,
        y=near_coord,
        z=st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
)
boundary_moves_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=-900.0, max_value=900.0, allow_nan=False),
        st.floats(min_value=-900.0, max_value=900.0, allow_nan=False),
    ),
    min_size=2,
    max_size=10,
)


@given(positions=near_positions_st, moves=boundary_moves_st)
@settings(max_examples=60, deadline=None)
def test_inreach_and_delta_skips_identical_across_reach_boundary(positions, moves):
    """The displacement bound vs eager recompute, pairs crossing reach.

    Isolates the delta-epoch bound (grid off on both sides): small
    hops accumulate until a pair drifts out of decode range, out of
    interference reach, and back in — every crossing must recompute, every
    provably-stable hop may skip, and the fan-out must never differ.
    """
    n = len(positions)
    channels = []
    holders = []
    for skips in (True, False):
        sim = Simulator()
        channel = AcousticChannel(
            sim,
            use_spatial_grid=False,
            use_delta_epochs=skips,
            interference_range_factor=2.0,
        )
        holder = list(positions)
        for node_id in range(n):
            channel.create_modem(node_id, lambda i=node_id, h=holder: h[i])
        channels.append(channel)
        holders.append(holder)
    assert_identical(channels[0], channels[1], n)
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holders[0][idx]
        new = Position(old.x + dx, old.y + dy, old.z)
        for channel, holder in zip(channels, holders):
            holder[idx] = new
            channel.note_position_change(idx)
        assert_identical(channels[0], channels[1], n)


@given(positions=positions_st, moves=moves_st)
@settings(max_examples=40, deadline=None)
def test_delta_epochs_alone_identical_through_moves(positions, moves):
    """Isolate the displacement-bound skip from the grid cull."""
    n = len(positions)
    channels = []
    holders = []
    for delta in (True, False):
        sim = Simulator()
        channel = AcousticChannel(
            sim, use_spatial_grid=False, use_delta_epochs=delta
        )
        holder = list(positions)
        for node_id in range(n):
            channel.create_modem(node_id, lambda i=node_id, h=holder: h[i])
        channels.append(channel)
        holders.append(holder)
    assert_identical(channels[0], channels[1], n)
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holders[0][idx]
        new = Position(old.x + dx, old.y + dy, old.z)
        for channel, holder in zip(channels, holders):
            holder[idx] = new
            channel.note_position_change(idx)
        assert_identical(channels[0], channels[1], n)
