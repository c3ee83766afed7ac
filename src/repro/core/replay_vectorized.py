"""The ``"vectorized"`` replay backend: batch setup + flat event loop.

Replay is the pipeline's hot path — one record run feeds many replay cells —
and everything a replay needs is known before the first event fires:
``core/replay.py`` already sorts records by ingress time, routes are pinned
(source routing), buffers are infinite, and the candidate schedulers' keys
are either static per hop (EDF, priority, omniscient) or an affine function
of one dynamic per-packet value (LSTF slack).  This backend exploits that:

1. **Setup** (here): build the network once (for link parameters and
   routing-independent checks), flatten every packet-hop into arrays, and
   compute per-hop transmission times vectorized in the exact
   ``bytes * 8 / bw`` float form so every derived timestamp is bit-identical
   to the OO engine's.  The shipped header initializers have exact batch
   equivalents (same float expressions, same fold order for ``tmin``);
   an unrecognized initializer falls back to running the real initializer
   on real :class:`Packet` objects, so custom/slack-policy initializers
   behave exactly as on the python backend.
2. **Run** (:func:`repro.sim.vectorized.run_flat_replay`): a flat event loop
   over those arrays that mirrors the OO engine's event choreography
   tuple-for-tuple; see that module's docstring for the determinism
   argument.

The backend declines configurations outside the fast path — preemptive LSTF,
finite buffers, unknown modes — and :func:`repro.core.replay.replay_schedule`
then falls back to the ``"python"`` reference backend, so callers never see a
behaviour difference, only a speed difference.

Header initializers must be pure functions of ``(record, network)`` (every
shipped initializer is): they are evaluated upfront here, not interleaved
with the simulation as on the python backend.

The backend is columnar end to end: it reads the original schedule's
:class:`~repro.core.schedule.FlatSchedule` columns and returns a
:class:`~repro.core.schedule.Schedule` backed by the kernel's output
arrays, so a replay builds no per-packet objects.
"""

from __future__ import annotations

import gc
import math
import weakref
from functools import reduce as _reduce
from itertools import accumulate, chain, repeat
from operator import add as _add, itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.replay import replay_initializer, replay_scheduler_factory
from repro.core.schedule import FlatSchedule, Schedule
from repro.core.slack import (
    BlackBoxSlackInitializer,
    DeadlineSlackInitializer,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
    ReplayInitializer,
    StaticDelaySlackInitializer,
    ZeroSlackInitializer,
)
from repro.sim.backend import SimBackend, register_backend
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.tracer import Tracer
from repro.sim.vectorized import run_flat_replay
from repro.topology.base import Topology


def _config_error(message: str) -> Exception:
    from repro.pipeline.scenario import PipelineConfigError

    return PipelineConfigError(message)


#: Per-schedule flattening cache.  The flat view below depends only on the
#: schedule's columns and the topology's link parameters — not on the
#: replay mode or initializer — and the pipeline's whole shape is record
#: once, replay many (one recorded schedule drives every candidate mode and
#: replicate), so the flattening is reused across replays of the same
#: schedule.  Keys are weak: a dropped schedule drops its arrays.  Entries
#: are validated against the schedule's current columns (a schedule that
#: grows gets new ones) and the freshly derived link parameters, so a hit
#: is exact, never heuristic.
_FLATTEN_CACHE: "weakref.WeakKeyDictionary[Schedule, tuple]" = (
    weakref.WeakKeyDictionary()
)

#: A path's transit nodes: every node but the destination.
_TRANSIT = itemgetter(slice(None, -1))


def _flatten(topology: Topology, schedule: Schedule) -> tuple:
    """Mode-independent flat view of ``(topology, schedule)``.

    Returns ``(canon, off, hop_pkt, hop_port, hop_tx, hop_prop, hop_sum,
    hop_node, num_ports)``: ``canon`` is the schedule's columns in
    canonical ``(ingress_time, packet_id)`` order, the replay's row order;
    see :meth:`VectorizedBackend.replay` for the other arrays.  All returned
    arrays are treated as read-only by the callers (the kernel writes only
    into per-call output arrays), which is what makes caching them sound.
    """
    # ---- link parameters straight from the declarative specs ----
    # The flat loop needs only per-hop (bandwidth, propagation); the specs
    # carry exactly the floats ``topology.build`` would hand the Link
    # objects, so skipping the build (hosts, ports, per-port scheduler
    # instances — none of which the loop touches) changes no output bit
    # while removing the dominant fixed cost on small cells.
    link_params: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for spec in topology.links:
        params = (spec.bandwidth_bps, spec.propagation_delay)
        link_params[(spec.a, spec.b)] = params
        link_params[(spec.b, spec.a)] = params

    columns = schedule.flat()
    cached = _FLATTEN_CACHE.get(schedule)
    if cached is not None and cached[0] is columns and cached[1] == link_params:
        return cached[2]

    canon = columns.canonical()
    paths = canon.path

    # ---- flatten packet-hops: ports, delays (vectorized), offsets ----
    # Replay traffic is flow-structured, so routes repeat heavily: port ids
    # are resolved once per distinct route, and every per-packet array is
    # then assembled from those in C.
    port_ids: Dict[Tuple[str, str], int] = {}
    route_pids: Dict[Tuple[str, ...], List[int]] = {}
    bandwidths: List[float] = []
    propagations: List[float] = []
    for route in dict.fromkeys(paths):
        pids = []
        for hop in zip(route, route[1:]):
            pid = port_ids.get(hop)
            if pid is None:
                try:
                    bw, prop = link_params[hop]
                except KeyError:
                    # Routes are visited in first-use order, so this names
                    # the first packet crossing a missing link.
                    raise ValueError(
                        f"replayed path of packet {canon.packet_id[paths.index(route)]} "
                        f"crosses {hop[0]!r}->{hop[1]!r}, which is not "
                        f"a link of topology {topology.name!r}"
                    ) from None
                pid = len(bandwidths)
                port_ids[hop] = pid
                bandwidths.append(bw)
                propagations.append(prop)
            pids.append(pid)
        route_pids[route] = pids
    packet_pids = list(map(route_pids.__getitem__, paths))
    hop_port = list(chain.from_iterable(packet_pids))
    counts = list(map(len, packet_pids))
    off = list(accumulate(counts, initial=0))
    hop_pkt = list(chain.from_iterable(map(repeat, range(len(paths)), counts)))

    sizes = np.array(canon.size_bytes, dtype=np.float64)
    hop_port_arr = np.array(hop_port, dtype=np.intp)
    bw_arr = np.array(bandwidths, dtype=np.float64)
    prop_arr = np.array(propagations, dtype=np.float64)
    # Exactly Link.transmission_delay: ``size_bytes * 8 / bandwidth_bps``
    # (IEEE-754 doubles either way, so the batch form is bit-identical).
    hop_tx_arr = (np.repeat(sizes, counts) * 8) / bw_arr[hop_port_arr]
    hop_tx = hop_tx_arr.tolist()
    hop_prop_arr = prop_arr[hop_port_arr]
    hop_prop = hop_prop_arr.tolist()
    # Per-hop (tx + prop): elementwise, so each sum is the same float the
    # OO code computes; folds downstream then add them in the same order.
    hop_sum = (hop_tx_arr + hop_prop_arr).tolist()
    # The node each hop departs from, for the replayed schedule's hops.
    hop_node = list(chain.from_iterable(map(_TRANSIT, paths)))

    flat = (
        canon,
        off,
        hop_pkt,
        hop_port,
        hop_tx,
        hop_prop,
        hop_sum,
        hop_node,
        len(bandwidths),
    )
    _FLATTEN_CACHE[schedule] = (columns, link_params, flat)
    return flat


class VectorizedBackend(SimBackend):
    """Array-based replay engine; bit-identical to ``"python"``, much faster."""

    name = "vectorized"
    replay_note = (
        "replay fast path (lstf/edf/priority/omniscient, infinite buffers); "
        "numpy batch precompute + pure-python flat event loop"
    )

    #: Replay modes with a flat-loop key model.  ``lstf-preemptive`` is
    #: excluded: preemption re-opens in-flight transmissions, which the flat
    #: loop does not model (the python backend handles it).
    SUPPORTED_MODES = frozenset({"lstf", "edf", "priority", "omniscient"})

    def _kernel(self, *args, **kwargs):
        """The flat event loop this backend drives.

        The seam the ``"compiled"`` backend overrides: everything else —
        flattening, batch header initialization, the columnar result — is
        shared orchestration, so a backend swaps engines by swapping this
        one call (:mod:`repro.core.replay_compiled`).
        """
        return run_flat_replay(*args, **kwargs)

    def supports_replay(
        self,
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        initializer: Optional[ReplayInitializer] = None,
        topology: Optional[Topology] = None,
        faults=None,
    ) -> bool:
        """The fast path: infinite buffers, a non-preemptive key-mode, no faults.

        A topology with finite per-link buffers also declines: the flat
        loop never drops packets, so finite-buffer replays belong to the
        reference backend.  Fault-bearing replays (a non-empty fault plan)
        decline for the same reason — the flat loop has no drop path.
        """
        return (
            mode in self.SUPPORTED_MODES
            and default_buffer_bytes is None
            and (faults is None or faults.is_empty())
            and (
                topology is None
                or all(spec.buffer_bytes is None for spec in topology.links)
            )
        )

    def replay(
        self,
        topology: Topology,
        schedule: Schedule,
        mode: str = "lstf",
        default_buffer_bytes: Optional[float] = None,
        max_events: Optional[int] = None,
        initializer: Optional[ReplayInitializer] = None,
        faults=None,
    ) -> Schedule:
        self.check_available()
        if not self.supports_replay(
            mode, default_buffer_bytes=default_buffer_bytes, topology=topology, faults=faults
        ):
            raise _config_error(
                f"vectorized backend does not support mode={mode!r} with "
                f"default_buffer_bytes={default_buffer_bytes!r}, "
                f"faults={'set' if faults is not None and not faults.is_empty() else None!r} "
                f"on topology {topology.name!r}; use the python backend "
                "(replay_schedule falls back automatically)"
            )
        if initializer is None:
            initializer = replay_initializer(mode)
        if not len(schedule):
            return Schedule()
        (
            canon,
            off,
            hop_pkt,
            hop_port,
            hop_tx,
            hop_prop,
            hop_sum,
            hop_node,
            num_ports,
        ) = _flatten(topology, schedule)
        n = len(canon)

        # ---- header initialization -> per-mode scheduler keys ----
        slack, priority, deadline, vectors = _initialize_headers(
            initializer, canon, topology, mode, off, hop_sum
        )
        hop_key: Optional[List[float]] = None
        if mode == "lstf":
            pass  # dynamic keys, computed in the loop from ``slack``
        elif mode == "priority":
            slack = None
            hop_key = [priority[j] for j in hop_pkt]
        elif mode == "omniscient":
            slack = None
            hop_key = []
            for j in range(n):
                vector = vectors[j]
                hops = off[j + 1] - off[j]
                # One vector entry is consumed per enqueue, i.e. per hop in
                # path order; hops beyond the vector key at +inf.
                if len(vector) >= hops:
                    hop_key.extend(vector[:hops])
                else:
                    hop_key.extend(vector)
                    hop_key.extend([math.inf] * (hops - len(vector)))
        else:  # edf
            slack = None
            hop_key = []
            for j in range(n):
                base = off[j]
                hops = off[j + 1] - base
                target = deadline[j]
                if target == math.inf:
                    hop_key.extend([math.inf] * hops)
                    continue
                for k in range(hops):
                    # Network.tmin_along over the remaining path: a forward
                    # left-fold of (tx + prop) per link, association kept
                    # (hop_sum[i] is the elementwise tx + prop; reduce() is
                    # the same fold, driven from C).
                    tmin_remaining = _reduce(_add, hop_sum[base + k : base + hops], 0.0)
                    # EdfScheduler.key: deadline - tmin_remaining + tx.
                    hop_key.append(target - tmin_remaining + hop_tx[base + k])

        # ---- run; the result is the kernel's arrays as columns ----
        # The loop allocates hundreds of thousands of non-cyclic heap
        # tuples; pausing the cycle collector around it avoids repeated
        # gen-0 scans of an ever-growing live set.  Refcounting still frees
        # everything.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            arr, start, dep, egress, executed = self._kernel(
                canon.ingress_time,
                off,
                hop_pkt,
                hop_port,
                hop_tx,
                hop_prop,
                num_ports,
                slack,
                hop_key,
                max_events=max_events,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        Simulator.events_executed_total += executed

        # Rows stay in canonical order and keep the original packet ids;
        # every column but the output times and hop timings is shared.
        replayed = FlatSchedule(
            packet_id=canon.packet_id,
            flow_id=canon.flow_id,
            src=canon.src,
            dst=canon.dst,
            size_bytes=canon.size_bytes,
            ingress_time=canon.ingress_time,
            output_time=egress,
            path=canon.path,
            flow_size_bytes=canon.flow_size_bytes,
            deadline=canon.deadline,
            hop_off=off,
            hop_node=hop_node,
            hop_arrival=arr,
            hop_start=start,
            hop_departure=dep,
        )
        if None in egress:  # packets still in flight when max_events hit
            replayed = replayed.take(
                [j for j, out_time in enumerate(egress) if out_time is not None]
            )
        return Schedule.from_flat(replayed)


def _initialize_headers(
    initializer: ReplayInitializer,
    canon: FlatSchedule,
    topology: Topology,
    mode: str,
    off: List[int],
    hop_sum: List[float],
):
    """Per-packet header state (slack, priority, deadline, hop vectors).

    The shipped initializers are evaluated in batch over ``canon``'s
    columns with the exact float expressions of their ``initialize``
    methods (``None`` encoded as ``math.inf``, which keys and decrements
    identically).  Any other initializer runs for real, on real records and
    packets against a freshly built network, in canonical order — slower,
    but behaviourally indistinguishable from the python backend.
    """
    n = len(canon)
    inf = math.inf
    slack: Optional[List[float]] = None
    priority: Optional[List[float]] = None
    deadline: Optional[List[float]] = None
    vectors: Optional[List[List[float]]] = None
    kind = type(initializer)

    if kind is BlackBoxSlackInitializer:
        # slack = o - i - tmin(path); deadline = o.  The tmin fold matches
        # Network.tmin_along: total += (tx + prop), link by link, forward
        # (hop_sum[f] is the elementwise tx + prop of hop f).
        slack = [
            # reduce() drives the same left fold from C: ((0.0 + a) + b) + ...
            output - ingress - _reduce(_add, hop_sum[off[j] : off[j + 1]], 0.0)
            for j, (output, ingress) in enumerate(zip(canon.output_time, canon.ingress_time))
        ]
        deadline = list(canon.output_time)
    elif kind is OutputTimePriorityInitializer:
        priority = list(canon.output_time)
        deadline = list(priority)
    elif kind is OmniscientInitializer:
        vectors = [canon.hop_output_times(j) for j in range(n)]
        deadline = list(canon.output_time)
    elif kind is ZeroSlackInitializer:
        slack = [0.0] * n
        deadline = [inf if target is None else target for target in canon.deadline]
    elif kind is StaticDelaySlackInitializer:
        slack = [initializer.slack_seconds] * n
        deadline = [inf if target is None else target for target in canon.deadline]
    elif kind is DeadlineSlackInitializer:
        # Same min as the initializer's per-network cache takes over
        # network.links: full-duplex links share one bandwidth, so the
        # spec-level min is the same float.
        bottleneck = min(spec.bandwidth_bps for spec in topology.links)
        fallback = initializer.no_deadline_slack
        slack = []
        deadline = []
        for target, flow_bytes, size, ingress in zip(
            canon.deadline, canon.flow_size_bytes, canon.size_bytes, canon.ingress_time
        ):
            if target is None:
                slack.append(fallback)
                deadline.append(inf)
                continue
            if flow_bytes is None:
                flow_bytes = size
            # Same float form as DeadlineSlackInitializer.initialize.
            residual = flow_bytes * 8 / bottleneck
            slack.append(target - ingress - residual)
            deadline.append(target)
    else:
        # Unknown initializer: run the real thing on real packets against a
        # real network, exactly as ReplayInjector._inject builds them.  The
        # build is deferred to here because only this path needs it.
        network = topology.build(
            Simulator(),
            replay_scheduler_factory(mode),
            tracer=Tracer(),
            default_buffer_bytes=None,
        )
        slack = []
        priority = []
        deadline = []
        vectors = []
        for record in canon.iter_records():
            packet = Packet(
                flow_id=record.flow_id,
                src=record.src,
                dst=record.dst,
                size_bytes=record.size_bytes,
                ptype=PacketType.DATA,
                route=list(record.path),
                replay_of=record.packet_id,
            )
            packet.header.flow_size_bytes = record.flow_size_bytes
            packet.flow_deadline = record.deadline
            initializer.initialize(packet, record, network)
            header = packet.header
            slack.append(inf if header.slack is None else header.slack)
            priority.append(inf if header.priority is None else header.priority)
            deadline.append(inf if header.deadline is None else header.deadline)
            vectors.append(
                list(header.hop_output_times)
                if header.hop_output_times is not None
                else []
            )
        return slack, priority, deadline, vectors

    if slack is None:
        slack = [inf] * n
    if priority is None:
        priority = [inf] * n
    if deadline is None:
        deadline = [inf] * n
    if vectors is None:
        vectors = [[]] * n  # read-only: one shared empty vector
    return slack, priority, deadline, vectors


register_backend("vectorized", VectorizedBackend)
