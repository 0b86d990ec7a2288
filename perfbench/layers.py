"""Where the traced run hooks into each layer, and what it counts there.

Every hook is a call into a layer's entry point, wrapped from here (see
:meth:`spans.Tracer.patch`).  A hook whose target was renamed fails the
traced run loudly instead of silently reporting zero.

Span names and the layer each belongs to:

=========================  ==============================================
``des.run``                ``Simulator.run`` (self time = DES loop)
``channel.broadcast``      ``AcousticChannel.broadcast`` (fan-out)
``geometry.row``           ``LinkStateCache.broadcast_row`` / ``deliveries``
``modem.begin``            ``AcousticModem.begin_arrival``
``modem.finish``           ``AcousticModem._finish_arrival``
``modem.decode``           ``AcousticModem._decode_outcome``
``acoustic.sinr_per``      ``LinkBudget.sinr_db_from_levels``, ``PerModel.is_successful``
``mac.rx``                 MAC receive / rx-failure callbacks from the modem
``mac.slot``               ``SlottedMac._slot_tick``
``mobility.tick``          ``MobilityManager._tick``
``scenario.build``         ``Scenario.__init__`` (self = nodes, MACs, routing)
``scenario.deployment``    the deployment generator called by the build
``scenario.channel``       ``AcousticChannel.__init__``
``metrics.collect``        ``Scenario._collect``
``engine.run_request``     ``run_request`` as the worker calls it
``engine.cell``            ``execute_cell`` (one simulated sweep cell)
``cache.get`` / ``.put``   ``ResultCache.get`` / ``ResultCache.put``
``service.store``          ``JobStore`` submit/claim/heartbeat/finish/get/...
``service.execute``        ``WorkerPool._execute`` (claim to settle)
``service.http``           request handlers (``service.http_wait`` = long-poll)
=========================  ==============================================
"""

from __future__ import annotations

import os
import re
import time
from typing import Dict, List

from spans import Tracer

_JOB_KEY = re.compile(r"/jobs/([0-9a-f]{16,64})")

#: JobStore methods that count as store time.
_STORE_METHODS = ("submit", "claim", "heartbeat", "finish", "fail", "release",
                  "expire_leases", "get", "progress_since",
                  "counts", "list_jobs")


class LayerCounters:
    """Deterministic per-layer counts gathered at the hooks."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        #: Submit time (epoch seconds) of each queued job, until claimed.
        self.submitted_at: Dict[str, float] = {}
        self.queue_wait_s: List[float] = []

    def add(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _collect_counters(counters: LayerCounters, scenario) -> None:
    """Read one finished scenario's kernel, channel, modem and MAC counts."""
    stats = scenario.channel.stats
    add = counters.add
    add("des.events", scenario.sim.events_processed)
    add("channel.broadcasts", stats.broadcasts)
    add("channel.deliveries", stats.deliveries)
    add("geometry.candidates", stats.grid_candidates)
    add("geometry.lookup_hits", stats.cache_hits)
    add("geometry.lookup_misses", stats.cache_misses)
    add("geometry.rows_refreshed", stats.rows_refreshed)
    add("geometry.pair_skips", stats.rows_skipped_delta + stats.rows_skipped_inreach)
    for mac in scenario.macs:
        modem = mac.node.modem.stats
        add("modem.ok", modem.rx_ok)
        add("modem.noise", modem.rx_noise)
        add("modem.collision", modem.rx_collision)
        add("modem.half_duplex", modem.rx_half_duplex)
        add("mac.handshakes_started", mac.stats.handshakes_started)
        add("mac.handshakes_completed", mac.stats.handshakes_completed)
        extra = getattr(mac, "extra_stats", None)
        if extra is not None:
            add("mac.extra_completed", extra.completed)


def install(tracer: Tracer, counters: LayerCounters) -> None:
    """Wrap every layer entry point the traced run measures."""
    from repro.acoustic.per import PerModel
    from repro.acoustic.sinr import LinkBudget
    from repro.des.simulator import Simulator
    from repro.experiments import cache as cache_mod
    from repro.experiments import parallel as parallel_mod
    from repro.experiments import scenario as scenario_mod
    from repro.mac.base import SlottedMac
    from repro.phy.channel import AcousticChannel
    from repro.phy.linkcache import LinkStateCache
    from repro.phy.modem import AcousticModem
    from repro.service import api as api_mod
    from repro.service import worker as worker_mod
    from repro.service.store import JobStore
    from repro.topology.mobility import MobilityManager

    wrap, patch = tracer.wrap, tracer.patch

    def hook(owner, attr, name, **kwargs):
        patch(owner, attr, wrap(name, vars(owner)[attr], **kwargs))

    hook(Simulator, "run", "des.run")
    hook(AcousticChannel, "broadcast", "channel.broadcast")
    hook(LinkStateCache, "broadcast_row", "geometry.row")
    hook(LinkStateCache, "deliveries", "geometry.row")
    hook(AcousticModem, "begin_arrival", "modem.begin",
         on_return=lambda a, r: counters.add("modem.arrivals"))
    hook(AcousticModem, "_finish_arrival", "modem.finish")
    hook(AcousticModem, "_decode_outcome", "modem.decode",
         on_return=lambda a, r: counters.add("modem.decodes"))
    hook(LinkBudget, "sinr_db_from_levels", "acoustic.sinr_per")
    hook(PerModel, "is_successful", "acoustic.sinr_per")
    hook(SlottedMac, "_on_modem_receive", "mac.rx")
    hook(SlottedMac, "_on_modem_failure", "mac.rx")
    hook(SlottedMac, "_slot_tick", "mac.slot")
    hook(MobilityManager, "_tick", "mobility.tick",
         on_return=lambda a, r: counters.add("mobility.ticks"))
    hook(scenario_mod.Scenario, "__init__", "scenario.build")
    hook(scenario_mod, "connected_column_deployment", "scenario.deployment")
    hook(scenario_mod, "tiled_column_deployment", "scenario.deployment")
    hook(AcousticChannel, "__init__", "scenario.channel")

    collect = vars(scenario_mod.Scenario)["_collect"]
    timed_collect = wrap("metrics.collect", collect)

    def counting_collect(self, duration_s):
        # Counted before collecting: the read is outside the timed span.
        _collect_counters(counters, self)
        return timed_collect(self, duration_s)

    patch(scenario_mod.Scenario, "_collect", counting_collect)

    # Engine and result cache (the service workload's worker thread).
    def note_request(args, result):
        counters.add("engine.cells_failed", len(result.failures))

    hook(worker_mod, "run_request", "engine.run_request", on_return=note_request)
    hook(parallel_mod, "execute_cell", "engine.cell",
         on_return=lambda a, r: counters.add("engine.cell_runs"))

    def note_get(args, result):
        counters.add("cache.hits" if result is not None else "cache.misses")

    def note_put(args, result):
        counters.add("cache.stores")
        cache, key = args[0], args[1]
        counters.add("cache.bytes_written", os.path.getsize(cache._path(key)))

    hook(cache_mod.ResultCache, "get", "cache.get", on_return=note_get)
    hook(cache_mod.ResultCache, "put", "cache.put", on_return=note_put)

    # Job store, worker and HTTP front end.
    for method in _STORE_METHODS:
        hook(JobStore, method, "service.store")

    submit = vars(JobStore)["submit"]

    def stamped_submit(self, key, request):
        record, deduped = submit(self, key, request)
        if not deduped:
            counters.submitted_at[key] = time.time()
        return record, deduped

    claim = vars(JobStore)["claim"]

    def stamped_claim(self, *args, **kwargs):
        job = claim(self, *args, **kwargs)
        if job is not None and job.key in counters.submitted_at:
            counters.queue_wait_s.append(
                time.time() - counters.submitted_at.pop(job.key)
            )
        return job

    patch(JobStore, "submit", stamped_submit)
    patch(JobStore, "claim", stamped_claim)
    hook(JobStore, "add_progress", "service.store",
         on_return=lambda a, r: counters.add("service.progress_rows"))
    hook(worker_mod.WorkerPool, "_execute", "service.execute",
         unit_of=lambda args: args[1].key[:12])

    def http_unit(args):
        match = _JOB_KEY.search(args[0].path)
        return match.group(1)[:12] if match else None

    handler = api_mod._Handler
    get = vars(handler)["do_GET"]
    timed_get = wrap("service.http", get, unit_of=http_unit)
    waiting_get = wrap("service.http_wait", get, unit_of=http_unit)

    def routed_get(self):
        # Long-polls mostly sleep; keep them out of the busy HTTP time.
        if "wait=" in self.path:
            return waiting_get(self)
        return timed_get(self)

    patch(handler, "do_GET", routed_get)
    hook(handler, "do_POST", "service.http")
