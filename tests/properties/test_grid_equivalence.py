"""Property tests: grid-culled results are *bit-identical* to the full scan.

The spatial hash and the movement-bounded delta-epoch skip are allowed to
avoid work, never to change answers: a culled broadcast must fan out to
exactly the receivers the scalar ``use_link_cache=False`` scan picks, with
exactly the same delays and levels, for any geometry — including nodes
spread far outside each other's 3x3x3 cell neighborhoods (where the cull
actually bites) and after arbitrary interleaved moves (where the skip's
displacement bound has to stay conservative).  Both channels are compared
through the public API only, since the scalar channel has no link cache.
The same comparison covers LRU row eviction under a shrunken row budget.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy import linkcache as linkcache_mod
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame

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


def build_pair(positions, interference_range_factor=2.0):
    """Cached channel and scalar reference channel over shared geometry."""
    channels = []
    holders = []
    for cached in (True, False):
        sim = Simulator()
        channel = AcousticChannel(
            sim,
            use_link_cache=cached,
            interference_range_factor=interference_range_factor,
        )
        holder = list(positions)
        for node_id in range(len(holder)):
            channel.create_modem(node_id, lambda i=node_id, h=holder: h[i])
        channels.append(channel)
        holders.append(holder)
    return channels[0], channels[1], holders[0], holders[1]


def fan_out(channel, tx_id):
    """(rx_id, delay, level) triples ``broadcast`` hands to ``_fan_out``."""
    captured = []
    channel._fan_out = lambda tx, frame, duration, targets: captured.extend(
        (rx, delay, level) for rx, _, delay, level in targets
    )
    frame = control_frame(FrameType.RTS, tx_id, tx_id, timestamp=0.0)
    channel.broadcast(channel.modem_of(tx_id), frame, 0.01)
    return captured


def assert_identical(culled, full, n):
    for tx in range(n):
        assert fan_out(culled, tx) == fan_out(full, tx)
        assert culled.neighbors_of(tx) == full.neighbors_of(tx)
        for rx in range(n):
            if tx == rx:
                continue
            assert culled.distance_m(tx, rx) == full.distance_m(tx, rx)
            assert culled.propagation_delay_s(tx, rx) == full.propagation_delay_s(
                tx, rx
            )


def move_both(pair, holders, idx, new):
    for channel, holder in zip(pair, holders):
        holder[idx] = new
        channel.note_position_change(idx)


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
        move_both(
            (culled, full), (holder_c, holder_f), idx, Position(old.x + dx, old.y + dy, old.z)
        )
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
    """The displacement bound vs the scalar scan, pairs crossing reach.

    Small hops accumulate until a pair drifts out of decode range, out of
    interference reach, and back in — every crossing must recompute, every
    provably-stable hop may skip, and the fan-out must never differ.
    """
    n = len(positions)
    culled, full, holder_c, holder_f = build_pair(positions)
    assert_identical(culled, full, n)
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holder_c[idx]
        move_both(
            (culled, full), (holder_c, holder_f), idx, Position(old.x + dx, old.y + dy, old.z)
        )
        assert_identical(culled, full, n)


@given(positions=positions_st, moves=moves_st)
@settings(max_examples=40, deadline=None)
def test_delta_epochs_alone_identical_through_moves(positions, moves):
    """The displacement-bound skip at reach == decode range (factor 1)."""
    n = len(positions)
    culled, full, holder_c, holder_f = build_pair(positions, interference_range_factor=1.0)
    assert_identical(culled, full, n)
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holder_c[idx]
        move_both(
            (culled, full), (holder_c, holder_f), idx, Position(old.x + dx, old.y + dy, old.z)
        )
        assert_identical(culled, full, n)


def test_lru_row_eviction_identical_through_moves(monkeypatch):
    """Evicted rows rebuild exactly, interleaved with moves.

    At the default budget ``max_rows = budget // n`` is at least n for
    every n <= 2000, so eviction needs thousands of nodes.  A 300-entry
    budget lets a 30-node channel hold only 16 rows instead.
    """
    monkeypatch.setattr(linkcache_mod, "DEFAULT_ROW_BUDGET_ENTRIES", 300)
    rng = np.random.default_rng(3)
    n = 30
    positions = [
        Position(*(float(v) for v in rng.uniform(0.0, 4000.0, size=3))) for _ in range(n)
    ]
    culled, full, holder_c, holder_f = build_pair(positions)
    cache = culled.link_cache
    assert cache._max_rows == 16
    assert_identical(culled, full, n)
    for _ in range(8):
        idx = int(rng.integers(n))
        old = holder_c[idx]
        dx, dy, dz = (float(v) for v in rng.uniform(-400.0, 400.0, size=3))
        move_both(
            (culled, full),
            (holder_c, holder_f),
            idx,
            Position(old.x + dx, old.y + dy, max(0.0, old.z + dz)),
        )
        assert_identical(culled, full, n)
    # Thirty transmitters, sixteen rows: the rest were evicted.
    assert len(cache._rows) == cache._max_rows < n
