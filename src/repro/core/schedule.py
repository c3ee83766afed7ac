"""Schedules: the paper's central object.

A *schedule* is the set ``{(path(p), i(p), o(p))}`` produced by running some
collection of scheduling algorithms over a fixed input load (Section 2.1).
:class:`PacketRecord` captures one packet's entry, :class:`Schedule` the whole
set, along with the per-hop timing detail needed for omniscient replay and for
congestion-point analysis.

Schedules come from three places:

* recorded from a simulation run (:meth:`Schedule.from_tracer`),
* constructed by hand (the theory counterexamples build small viable
  schedules directly, exactly as the paper's appendix figures do), or
* loaded from disk (:func:`load_schedule`) — the pipeline's "record once,
  replay many" workflow persists recorded schedules as gzipped JSON-lines
  so replays (possibly in other processes) never re-record.

A loaded schedule, like one produced by a flat replay backend, is stored as
columns (:class:`FlatSchedule`) and builds :class:`PacketRecord` objects
only when a caller asks for records; the warm replay path — load, flat
replay, metrics — never does.

The on-disk format (``repro-schedule/2``) stores those columns.  A header
line carries free-form metadata (the pipeline stores the topology spec and
the cache key there), the packet count, a ``nodes`` name table and a
``routes`` table (each route a list of node indices).  Then comes one JSON
line per :class:`FlatSchedule` column, rows in canonical ``(ingress_time,
packet_id)`` order: ``{"column", "dtype", "nulls", "data"}``, where ``data``
is the base64 of a little-endian array — float64 for times and sizes
(``None`` rows listed in ``nulls``), int64 for ids and hop offsets, int32
indices into the tables for node names and paths.  The round-trip is
lossless: floats are stored as their raw bits, so a loaded schedule replays
bit-identically to the in-memory original (an ``int`` in a float field
reloads as the equal ``float``).  Files of the older one-object-per-record
``repro-schedule/1`` format fail the header check; the schedule cache
quarantines such an entry and re-records it once.

Large schedules may instead be **sharded** (``repro-schedule-manifest/1``):
a single-line JSON manifest (``<key>.manifest.json``) naming ingress-time
chunks stored as ordinary ``repro-schedule/2`` files
(``<key>.shard-<i>.jsonl.gz``), each covering a contiguous slice of the
canonical ``(ingress_time, packet_id)`` order.  Sharding is pure storage
layout: it never enters cache keys, and :func:`load_schedule` returns the
same schedule either way.  :func:`iter_schedule_records` cursors through
either form one file at a time, so scale-tier consumers (the streaming
metrics) never hold a whole sharded schedule in memory.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from base64 import b64decode, b64encode
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, le, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.packet import Packet
from repro.sim.tracer import Tracer

#: Format tag written into the header line of serialized schedules.
SCHEDULE_FORMAT = "repro-schedule/2"

#: Format tag of the shard manifest for sharded schedules.
MANIFEST_FORMAT = "repro-schedule-manifest/1"

#: Filename suffix that marks a shard manifest.
MANIFEST_SUFFIX = ".manifest.json"


@dataclass(slots=True)
class HopTiming:
    """Original-schedule timing of one packet at one node.

    Treated as immutable by convention (not enforced: schedules construct
    millions of these on the replay hot path, and a frozen dataclass pays
    an ``object.__setattr__`` per field — ~3x the construction cost).

    Attributes:
        node: Node name.
        arrival_time: When the packet (last bit) arrived at the node.
        start_service_time: When the node started transmitting the packet —
            the paper's ``o(p, alpha)``.
        departure_time: When the last bit left the node.
    """

    node: str
    arrival_time: float
    start_service_time: Optional[float]
    departure_time: Optional[float]

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting in the node's queue before service began."""
        if self.start_service_time is None:
            return 0.0
        return self.start_service_time - self.arrival_time

    def to_list(self) -> list:
        """Compact JSON form: ``[node, arrival, start_service, departure]``."""
        return [self.node, self.arrival_time, self.start_service_time, self.departure_time]


@dataclass(slots=True)
class PacketRecord:
    """One packet's entry in a schedule.

    Attributes:
        packet_id: Identifier of the packet in the original run.
        flow_id: Flow the packet belonged to.
        src: Source host name (the packet's ingress).
        dst: Destination host name (the packet's egress).
        size_bytes: Packet size.
        ingress_time: ``i(p)`` — when the packet entered the network.
        output_time: ``o(p)`` — when the packet's last bit left the network.
        path: Node names from source to destination (inclusive).
        hops: Per-hop timing from the original run (may be empty for
            hand-built schedules that only specify end-to-end times).
        flow_size_bytes: Size of the packet's flow, carried through so that
            replay modes that need it (e.g. SJF-flavoured analyses) have it.
        deadline: Absolute completion deadline of the packet's flow
            (``None`` when the workload carried no deadlines).  Set by
            deadline-tagging perturbations; replay evaluation reports
            deadline-met fractions for original and replay when present.
    """

    packet_id: int
    flow_id: int
    src: str
    dst: str
    size_bytes: float
    ingress_time: float
    output_time: float
    path: List[str]
    hops: List[HopTiming] = field(default_factory=list)
    flow_size_bytes: Optional[float] = None
    deadline: Optional[float] = None

    @classmethod
    def from_packet(cls, packet: Packet) -> "PacketRecord":
        """Build a record from a delivered packet of a finished simulation."""
        if packet.egress_time is None:
            raise ValueError(
                f"packet {packet.packet_id} has not exited the network; only "
                "delivered packets can enter a schedule"
            )
        hops = [
            HopTiming(
                node=hop.node,
                arrival_time=hop.arrival_time,
                start_service_time=hop.start_service_time,
                departure_time=hop.departure_time,
            )
            for hop in packet.hops
        ]
        path = [hop.node for hop in packet.hops]
        if not path or path[-1] != packet.dst:
            path = path + [packet.dst]
        return cls(
            packet_id=packet.packet_id,
            flow_id=packet.flow_id,
            src=packet.src,
            dst=packet.dst,
            size_bytes=packet.size_bytes,
            ingress_time=packet.ingress_time if packet.ingress_time is not None else 0.0,
            output_time=packet.egress_time,
            path=path,
            hops=hops,
            flow_size_bytes=packet.header.flow_size_bytes,
            deadline=packet.flow_deadline,
        )

    @property
    def network_delay(self) -> float:
        """End-to-end delay ``o(p) - i(p)`` in the original schedule."""
        return self.output_time - self.ingress_time

    @property
    def total_queueing_delay(self) -> float:
        """Sum of per-hop queueing delays in the original schedule."""
        return sum(hop.queueing_delay for hop in self.hops)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Number of nodes at which the packet waited more than ``epsilon``.

        This is the paper's notion of a congestion point: "a node where a
        packet is forced to wait during a given schedule".
        """
        return sum(1 for hop in self.hops if hop.queueing_delay > epsilon)

    def hop_output_times(self) -> List[float]:
        """The per-hop service-start times ``o(p, alpha_i)`` (omniscient header)."""
        times: List[float] = []
        for hop in self.hops:
            if hop.start_service_time is not None:
                times.append(hop.start_service_time)
        return times

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable form of this record (lossless)."""
        return {
            "packet_id": self.packet_id,
            "flow_id": self.flow_id,
            "src": self.src,
            "dst": self.dst,
            "size_bytes": self.size_bytes,
            "ingress_time": self.ingress_time,
            "output_time": self.output_time,
            "path": list(self.path),
            "hops": [hop.to_list() for hop in self.hops],
            "flow_size_bytes": self.flow_size_bytes,
            "deadline": self.deadline,
        }

# Canonical record order (ingress time, then packet id).  attrgetter builds
# the key tuples in C — records() sits on the replay hot path, where the
# equivalent lambda costs ~2.5x as much per sort.
_RECORD_ORDER = attrgetter("ingress_time", "packet_id")

#: Per-packet columns of a :class:`FlatSchedule`, named after the
#: :class:`PacketRecord` fields they hold.
_PACKET_COLUMNS = (
    "packet_id",
    "flow_id",
    "src",
    "dst",
    "size_bytes",
    "ingress_time",
    "output_time",
    "path",
    "flow_size_bytes",
    "deadline",
)

#: Hop columns of a :class:`FlatSchedule`, in :meth:`HopTiming.to_list`
#: order, and the :class:`HopTiming` fields they hold.
_HOP_COLUMNS = ("hop_node", "hop_arrival", "hop_start", "hop_departure")
_HOP_FIELDS = ("node", "arrival_time", "start_service_time", "departure_time")


def _shared_routes(paths: Iterable[Sequence[str]]) -> List[Tuple[str, ...]]:
    """``paths`` as tuples, one shared tuple per distinct route.

    Traffic is flow-structured, so a schedule has few distinct routes; the
    path column holds one pointer per packet instead of one list each.
    """
    routes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    return [routes.setdefault(route, route) for route in map(tuple, paths)]


@dataclass(eq=False)
class FlatSchedule:
    """A schedule stored as columns instead of per-packet objects.

    Each packet column (``packet_id`` … ``deadline``, named after the
    :class:`PacketRecord` field it holds) has one entry per packet, in row
    order; paths are shared tuples, so routes can key dicts.  The hop columns
    hold every packet's :class:`HopTiming` fields back to back: packet
    ``j``'s hops are rows ``hop_off[j]:hop_off[j + 1]``.

    Columns are read-only once built — a replayed schedule shares the id,
    path and size columns of the schedule it replayed — so the derived
    views (:meth:`index`, :meth:`queueing_delays`) are computed once.
    """

    packet_id: List[int] = field(default_factory=list)
    flow_id: List[int] = field(default_factory=list)
    src: List[str] = field(default_factory=list)
    dst: List[str] = field(default_factory=list)
    size_bytes: List[float] = field(default_factory=list)
    ingress_time: List[float] = field(default_factory=list)
    output_time: List[float] = field(default_factory=list)
    path: List[Tuple[str, ...]] = field(default_factory=list)
    flow_size_bytes: List[Optional[float]] = field(default_factory=list)
    deadline: List[Optional[float]] = field(default_factory=list)
    hop_off: List[int] = field(default_factory=lambda: [0])
    hop_node: List[str] = field(default_factory=list)
    hop_arrival: List[float] = field(default_factory=list)
    hop_start: List[Optional[float]] = field(default_factory=list)
    hop_departure: List[Optional[float]] = field(default_factory=list)
    _index: Optional[Dict[int, int]] = field(default=None, init=False, repr=False)
    _queueing: Optional[List[float]] = field(default=None, init=False, repr=False)

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "FlatSchedule":
        """Columns of ``records``, in iteration order."""
        records = list(records)
        hop_lists = list(map(attrgetter("hops"), records))
        hops = list(chain.from_iterable(hop_lists))
        columns = {name: list(map(attrgetter(name), records)) for name in _PACKET_COLUMNS}
        columns["path"] = _shared_routes(columns["path"])
        for column, name in zip(_HOP_COLUMNS, _HOP_FIELDS):
            columns[column] = list(map(attrgetter(name), hops))
        columns["hop_off"] = list(accumulate(map(len, hop_lists), initial=0))
        return cls(**columns)

    def __len__(self) -> int:
        return len(self.packet_id)

    def index(self) -> Dict[int, int]:
        """Row of each packet id (raises ``ValueError`` on a duplicate id)."""
        if self._index is None:
            ids = self.packet_id
            index = dict(zip(ids, range(len(ids))))
            if len(index) != len(ids):
                seen: set = set()
                duplicate = next(pid for pid in ids if pid in seen or seen.add(pid))
                raise ValueError(f"duplicate packet id {duplicate} in schedule")
            self._index = index
        return self._index

    def canonical_order(self) -> Optional[List[int]]:
        """Rows in canonical ``(ingress_time, packet_id)`` order.

        ``None`` when row order already is canonical — an O(n) check that
        holds for every stored schedule, since files are written in that
        order; only then is the sort paid.
        """
        keys = list(zip(self.ingress_time, self.packet_id))
        if all(map(le, keys, islice(keys, 1, None))):
            return None
        return sorted(range(len(keys)), key=keys.__getitem__)

    def canonical(self) -> "FlatSchedule":
        """This schedule with rows in canonical order (itself if already so)."""
        order = self.canonical_order()
        return self if order is None else self.take(order)

    def take(self, rows: Sequence[int]) -> "FlatSchedule":
        """A new flat schedule holding ``rows`` of this one, in that order."""
        off = self.hop_off
        spans = [slice(off[row], off[row + 1]) for row in rows]
        columns = {
            name: list(map(getattr(self, name).__getitem__, rows)) for name in _PACKET_COLUMNS
        }
        for name in _HOP_COLUMNS:
            hops = map(getattr(self, name).__getitem__, spans)
            columns[name] = list(chain.from_iterable(hops))
        counts = (span.stop - span.start for span in spans)
        columns["hop_off"] = list(accumulate(counts, initial=0))
        return FlatSchedule(**columns)

    def hop_output_times(self, row: int) -> List[float]:
        """:meth:`PacketRecord.hop_output_times` of packet ``row``."""
        starts = self.hop_start[self.hop_off[row] : self.hop_off[row + 1]]
        return [start for start in starts if start is not None]

    def queueing_delays(self) -> List[float]:
        """Per-packet :attr:`PacketRecord.total_queueing_delay`, from the columns.

        The same per-hop floats summed by the same built-in ``sum``, so
        every entry is bit-identical to the record-level property.
        """
        if self._queueing is None:
            arrivals, starts = self.hop_arrival, self.hop_start
            if None in starts:
                per_hop = [
                    0.0 if start is None else start - arrival
                    for arrival, start in zip(arrivals, starts)
                ]
            else:
                per_hop = list(map(sub, starts, arrivals))
            off = self.hop_off
            spans = map(slice, off, islice(off, 1, None))
            self._queueing = list(map(sum, map(per_hop.__getitem__, spans)))
        return self._queueing

    def iter_records(self) -> Iterator[PacketRecord]:
        """Build one :class:`PacketRecord` per row, lazily, in row order."""
        hops = map(HopTiming, self.hop_node, self.hop_arrival, self.hop_start, self.hop_departure)
        off = self.hop_off
        counts = map(sub, islice(off, 1, None), off)
        return map(
            PacketRecord,
            self.packet_id,
            self.flow_id,
            self.src,
            self.dst,
            self.size_bytes,
            self.ingress_time,
            self.output_time,
            map(list, self.path),
            map(list, map(islice, repeat(hops), counts)),
            self.flow_size_bytes,
            self.deadline,
        )


class Schedule:
    """A set of packet records indexed by packet id.

    A schedule is in one of two storage states.  A schedule built from
    records (recorded, hand-built, or grown with :meth:`add`) holds them in
    a dict, and builds its :class:`FlatSchedule` columns once, on the first
    :meth:`flat` call.  A schedule loaded from disk or produced by a flat
    replay backend holds only columns, and builds its :class:`PacketRecord`
    objects once, on the first record-level access (iteration, ``get``,
    ``record``, :meth:`records`).  Either way both views describe the same
    records; :meth:`add` drops the columns, which are rebuilt on demand.
    Records held by a schedule are treated as immutable, like the columns.
    """

    def __init__(self, records: Optional[Iterable[PacketRecord]] = None) -> None:
        self._records: Optional[Dict[int, PacketRecord]] = {}
        self._flat: Optional[FlatSchedule] = None
        if records is not None:
            for record in records:
                self.add(record)

    @classmethod
    def from_flat(cls, flat: FlatSchedule) -> "Schedule":
        """A schedule backed by ``flat``; row order becomes insertion order."""
        schedule = cls()
        schedule._records = None
        schedule._flat = flat
        return schedule

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, record: PacketRecord) -> None:
        """Insert a record (packet ids must be unique)."""
        records = self._record_map()
        if record.packet_id in records:
            raise ValueError(f"duplicate packet id {record.packet_id} in schedule")
        records[record.packet_id] = record
        self._flat = None

    @classmethod
    def from_packets(
        cls, packets: Iterable[Packet], use_replay_ids: bool = False
    ) -> "Schedule":
        """Build a schedule from delivered packets.

        Args:
            packets: Delivered packets (must have egress times).
            use_replay_ids: If true, records are keyed by each packet's
                ``replay_of`` id, so a replay run's schedule lines up with the
                original schedule it was replaying.
        """
        schedule = cls()
        for packet in packets:
            record = PacketRecord.from_packet(packet)
            if use_replay_ids and packet.replay_of is not None:
                record.packet_id = packet.replay_of
            schedule.add(record)
        return schedule

    @classmethod
    def from_tracer(cls, tracer: Tracer, data_only: bool = True) -> "Schedule":
        """Build a schedule from a finished simulation's tracer."""
        packets = tracer.delivered_data_packets() if data_only else tracer.delivered
        return cls.from_packets(packets)

    # ------------------------------------------------------------------ #
    # Storage views
    # ------------------------------------------------------------------ #
    def flat(self) -> FlatSchedule:
        """The columnar view, rows in insertion order (built once)."""
        if self._flat is None:
            self._flat = FlatSchedule.from_records(self._records.values())
        return self._flat

    def _record_map(self) -> Dict[int, PacketRecord]:
        """The record view, keyed by packet id (materialized once)."""
        if self._records is None:
            flat = self._flat
            self._records = dict(zip(flat.packet_id, flat.iter_records()))
        return self._records

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._records is None:
            return len(self._flat)
        return len(self._records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self._record_map().values())

    def __contains__(self, packet_id: int) -> bool:
        if self._records is None:
            return packet_id in self._flat.index()
        return packet_id in self._records

    def record(self, packet_id: int) -> PacketRecord:
        """The record for ``packet_id`` (raises ``KeyError`` if absent)."""
        return self._record_map()[packet_id]

    def get(self, packet_id: int) -> Optional[PacketRecord]:
        """The record for ``packet_id``, or ``None``."""
        return self._record_map().get(packet_id)

    def records(self) -> List[PacketRecord]:
        """All records, ordered by ingress time (then packet id)."""
        return sorted(self._record_map().values(), key=_RECORD_ORDER)

    def canonical_records(self) -> List[PacketRecord]:
        """Records in the comparator's canonical order.

        The canonical order is ``(ingress_time, packet_id)`` across records,
        with each record's hops visited in ``hop_index`` order — the walk
        order of the first-divergence comparator (:mod:`repro.diff`), of
        replay injection, and of the on-disk format.  Today this is exactly
        :meth:`records`; the alias exists so every canonical-order consumer
        names the contract it depends on.
        """
        return self.records()

    def packet_ids(self) -> List[int]:
        """All packet ids present in the schedule."""
        if self._records is None:
            return list(self._flat.packet_id)
        return list(self._records.keys())

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def max_congestion_points(self, epsilon: float = 1e-12) -> int:
        """Largest per-packet congestion-point count in the schedule."""
        return max((r.congestion_points(epsilon) for r in self), default=0)

    def congestion_point_histogram(self, epsilon: float = 1e-12) -> Dict[int, int]:
        """Histogram mapping congestion-point count to number of packets."""
        histogram: Dict[int, int] = {}
        for record in self:
            count = record.congestion_points(epsilon)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def time_span(self) -> Tuple[float, float]:
        """(earliest ingress, latest output) across all records."""
        if not len(self):
            return (0.0, 0.0)
        start = min(record.ingress_time for record in self)
        end = max(record.output_time for record in self)
        return (start, end)

    def total_bytes(self) -> float:
        """Sum of all packet sizes in the schedule."""
        return sum(record.size_bytes for record in self)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path: Union[str, "os.PathLike"], meta: Optional[dict] = None) -> None:
        """Write this schedule to ``path`` as (optionally gzipped) JSON-lines.

        Paths ending in ``.gz`` are gzip-compressed.  ``meta`` is stored in
        the header line and returned by :func:`load_schedule`; the pipeline
        uses it to carry the topology spec and cache-key provenance.
        """
        save_schedule(path, self, meta=meta)

    @classmethod
    def from_jsonl(cls, path: Union[str, "os.PathLike"]) -> "Schedule":
        """Load a schedule previously written by :meth:`to_jsonl`."""
        schedule, _ = load_schedule(path)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Schedule packets={len(self)}>"


# ---------------------------------------------------------------------- #
# On-disk column format
# ---------------------------------------------------------------------- #
#: Little-endian dtype of every stored column, in file order.  Float
#: columns are raw float64, so every value (``-0.0``, ``inf`` and NaN
#: included) reloads bit-exact; node columns hold int32 indices into the
#: header's ``nodes`` table, ``path`` into its ``routes`` table.
_COLUMN_DTYPES = {
    "packet_id": "<i8",
    "flow_id": "<i8",
    "src": "<i4",
    "dst": "<i4",
    "size_bytes": "<f8",
    "ingress_time": "<f8",
    "output_time": "<f8",
    "path": "<i4",
    "flow_size_bytes": "<f8",
    "deadline": "<f8",
    "hop_off": "<i8",
    "hop_node": "<i4",
    "hop_arrival": "<f8",
    "hop_start": "<f8",
    "hop_departure": "<f8",
}
_NODE_COLUMNS = ("src", "dst", "hop_node")
_FLOAT = "<f8"


def _open_for_write(path: str, compressed: bool) -> io.TextIOBase:
    if compressed:
        return gzip.open(path, "wt", encoding="utf-8", compresslevel=1)
    return open(path, "w", encoding="utf-8")


def _open_for_read(path: str) -> io.TextIOBase:
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _atomic_write_lines(path: str, lines: Iterable[str]) -> None:
    """Write text lines to ``path`` atomically (temp file + ``os.replace``)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with _open_for_write(tmp_path, compressed=path.endswith(".gz")) as stream:
            for line in lines:
                stream.write(line)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _column_line(name: str, values: list) -> str:
    """One column as a JSON line: dtype, ``None`` rows, base64 of the array."""
    dtype = _COLUMN_DTYPES[name]
    nulls: List[int] = []
    if dtype == _FLOAT and None in values:
        nulls = [row for row, value in enumerate(values) if value is None]
        values = [0.0 if value is None else value for value in values]
    data = np.array(values, dtype=dtype).tobytes()
    entry = {"column": name, "dtype": dtype, "nulls": nulls, "data": b64encode(data).decode()}
    return json.dumps(entry) + "\n"


def _schedule_lines(flat: FlatSchedule, meta: Optional[dict]) -> Iterator[str]:
    """A ``repro-schedule/2`` file's lines: the header, then one per column."""
    routes = list(dict.fromkeys(flat.path))
    nodes = list(
        dict.fromkeys(chain(flat.src, flat.dst, flat.hop_node, chain.from_iterable(routes)))
    )
    node_id = {node: row for row, node in enumerate(nodes)}.__getitem__
    route_id = {route: row for row, route in enumerate(routes)}.__getitem__
    header = {
        "format": SCHEDULE_FORMAT,
        "packets": len(flat),
        "meta": meta or {},
        "nodes": nodes,
        "routes": [list(map(node_id, route)) for route in routes],
    }
    yield json.dumps(header) + "\n"
    for name in _COLUMN_DTYPES:
        values = getattr(flat, name)
        if name in _NODE_COLUMNS:
            values = list(map(node_id, values))
        elif name == "path":
            values = list(map(route_id, values))
        yield _column_line(name, values)


def _stored_flat(schedule: Schedule) -> FlatSchedule:
    """``schedule``'s columns in canonical order, as they are stored.

    A schedule holding one view is encoded through :meth:`Schedule.flat`,
    which keeps the columns it builds, so the replay that follows a
    recording does not flatten the records again.  A schedule holding both
    (loaded, then materialized) is encoded from its records, as callers see
    them.
    """
    if schedule._records is not None and schedule._flat is not None:
        return FlatSchedule.from_records(schedule.records())
    return schedule.flat().canonical()


def save_schedule(
    path: Union[str, "os.PathLike"],
    schedule: Schedule,
    meta: Optional[dict] = None,
) -> None:
    """Serialize ``schedule`` to ``path`` (gzipped when the name ends in ``.gz``).

    Rows are written in canonical ``(ingress_time, packet_id)`` order.  The
    write is atomic (temp file + ``os.replace``) so concurrent pipeline
    workers racing to populate the same cache entry cannot leave a truncated
    file behind.
    """
    path = os.fspath(path)
    _atomic_write_lines(path, _schedule_lines(_stored_flat(schedule), meta))


def shard_file_name(manifest_path: Union[str, "os.PathLike"], index: int) -> str:
    """Filename (no directory) of shard ``index`` of a sharded schedule.

    The manifest ``<key>.manifest.json`` owns shards
    ``<key>.shard-<i>.jsonl.gz`` in the same directory — the naming is a
    pure function of the manifest path, so callers never guess.
    """
    base = os.path.basename(os.fspath(manifest_path))
    if not base.endswith(MANIFEST_SUFFIX):
        raise ValueError(f"{manifest_path}: manifest paths must end in {MANIFEST_SUFFIX}")
    return f"{base[: -len(MANIFEST_SUFFIX)]}.shard-{index}.jsonl.gz"


def save_schedule_sharded(
    path: Union[str, "os.PathLike"],
    schedule: Schedule,
    meta: Optional[dict] = None,
    shard_packets: int = 100_000,
) -> List[str]:
    """Serialize ``schedule`` as ingress-time shards plus a manifest.

    ``path`` must end in :data:`MANIFEST_SUFFIX`; shards land next to it as
    ``<key>.shard-<i>.jsonl.gz``, each a self-contained ``repro-schedule/2``
    file covering ``shard_packets`` consecutive rows of the canonical
    ``(ingress_time, packet_id)`` order (so shard boundaries are ingress-time
    chunks and concatenating shards in manifest order reproduces the
    canonical stream exactly).  Every shard is written — atomically — before
    the manifest is, so a crash can never leave a manifest naming a missing
    shard; a dangling shard without a manifest is invisible garbage.

    Returns the shard file names (no directory), in order.
    """
    path = os.fspath(path)
    if shard_packets < 1:
        raise ValueError(f"shard_packets must be >= 1, got {shard_packets}")
    flat = _stored_flat(schedule)
    directory = os.path.dirname(path) or "."
    shards: List[dict] = []
    for index, start in enumerate(range(0, len(flat), shard_packets)):
        chunk = flat.take(range(start, min(start + shard_packets, len(flat))))
        name = shard_file_name(path, index)
        _atomic_write_lines(
            os.path.join(directory, name),
            _schedule_lines(chunk, {"shard_index": index}),
        )
        shards.append(
            {
                "file": name,
                "packets": len(chunk),
                "ingress_min": chunk.ingress_time[0],
                "ingress_max": chunk.ingress_time[-1],
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "packets": len(flat),
        "meta": meta or {},
        "shards": shards,
    }
    _atomic_write_lines(path, [json.dumps(manifest) + "\n"])
    return [shard["file"] for shard in shards]


def load_manifest(path: Union[str, "os.PathLike"]) -> dict:
    """Load and validate a shard manifest written by :func:`save_schedule_sharded`."""
    path = os.fspath(path)
    with _open_for_read(path) as stream:
        line = stream.readline()
    if not line.strip():
        raise ValueError(f"{path}: empty manifest file")
    manifest = json.loads(line)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not a {MANIFEST_FORMAT} file (format={manifest.get('format')!r})"
        )
    shards = manifest["shards"]
    total = sum(shard["packets"] for shard in shards)
    if total != manifest["packets"]:
        raise ValueError(
            f"{path}: manifest promises {manifest['packets']} packets but its "
            f"shards sum to {total}"
        )
    return manifest


@contextmanager
def _open_schedule_file(path: str) -> Iterator[Tuple[io.TextIOBase, dict]]:
    """Open a ``repro-schedule/2`` file: ``(stream past the header, header)``.

    The one place a header is validated: an empty file, a foreign format tag
    (a ``repro-schedule/1`` file included) or a packet count that is not a
    non-negative integer raises ``ValueError``.
    """
    with _open_for_read(path) as stream:
        header_line = stream.readline()
        if not header_line:
            raise ValueError(f"{path}: empty schedule file")
        header = json.loads(header_line)
        if not isinstance(header, dict) or header.get("format") != SCHEDULE_FORMAT:
            found = header.get("format") if isinstance(header, dict) else None
            raise ValueError(f"{path}: not a {SCHEDULE_FORMAT} file (format={found!r})")
        packets = header.get("packets")
        if type(packets) is not int or packets < 0:
            raise ValueError(f"{path}: header packet count {packets!r} is not a count")
        yield stream, header


def _indices(path: str, name: str, array, table: Sequence) -> list:
    """The ``table`` entries that ``array`` indexes, range-checked."""
    if len(array) and not (0 <= array.min() and array.max() < len(table)):
        raise ValueError(f"{path}: column {name!r} indexes past its {len(table)}-entry table")
    return list(map(table.__getitem__, array.tolist()))


def _decode_columns(path: str, stream: io.TextIOBase, header: dict) -> Dict[str, list]:
    """Decode the column lines after ``header`` into lists, fully checked.

    Every column must appear exactly once with its own dtype, hold
    ``packets`` rows (``packets + 1`` for ``hop_off``, ``hop_off[-1]`` for the
    hop columns) and index only into the header's tables; anything else
    raises ``ValueError``.
    """
    arrays: Dict[str, Tuple[object, list]] = {}
    for line in stream:
        entry = json.loads(line)
        name = entry["column"]
        dtype = _COLUMN_DTYPES.get(name)
        if dtype is None or name in arrays:
            raise ValueError(f"{path}: unexpected column {name!r}")
        if entry["dtype"] != dtype:
            raise ValueError(
                f"{path}: column {name!r} has dtype {entry['dtype']!r}, expected {dtype!r}"
            )
        nulls = entry["nulls"]
        if nulls and dtype != _FLOAT:
            raise ValueError(f"{path}: column {name!r} cannot hold nulls")
        data = np.frombuffer(b64decode(entry["data"], validate=True), dtype=dtype)
        arrays[name] = (data, nulls)
    missing = [name for name in _COLUMN_DTYPES if name not in arrays]
    if missing:
        raise ValueError(f"{path}: missing column(s) {missing} (truncated file?)")

    packets = header["packets"]
    hop_off = arrays["hop_off"][0]
    if len(hop_off) != packets + 1 or hop_off[0] != 0 or (np.diff(hop_off) < 0).any():
        raise ValueError(f"{path}: column 'hop_off' is not {packets + 1} ascending offsets")
    hops = int(hop_off[-1])
    nodes = header["nodes"]
    routes = header["routes"]
    for route in routes:
        if not all(type(node) is int and 0 <= node < len(nodes) for node in route):
            raise ValueError(f"{path}: route {route!r} indexes past the node table")
    routes = [tuple(map(nodes.__getitem__, route)) for route in routes]
    columns: Dict[str, list] = {}
    for name, (data, nulls) in arrays.items():
        rows = hops if name in _HOP_COLUMNS else packets + (name == "hop_off")
        if len(data) != rows:
            raise ValueError(
                f"{path}: column {name!r} holds {len(data)} rows, expected {rows} "
                "(truncated file?)"
            )
        if name in _NODE_COLUMNS:
            values = _indices(path, name, data, nodes)
        elif name == "path":
            values = _indices(path, name, data, routes)
        else:
            values = data.tolist()
        for row in nulls:
            if type(row) is not int or not 0 <= row < rows:
                raise ValueError(f"{path}: column {name!r} has null row {row!r} out of range")
            values[row] = None
        columns[name] = values
    return columns


def _read_schedule_file(path: str, flat: FlatSchedule) -> dict:
    """Append one ``repro-schedule/2`` file's rows to ``flat``; return its header.

    The only schedule reader.  Malformed content — a missing, duplicate,
    mistyped or wrong-length column, a bad table index — raises
    ``ValueError`` (a column cut short by truncation is one of these); a
    truncated gzip stream raises ``EOFError``.
    """
    with _open_schedule_file(path) as (stream, header):
        try:
            columns = _decode_columns(path, stream, header)
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"{path}: malformed column line ({type(error).__name__}: {error})"
            ) from error
    # The file's hop offsets continue after the hops already in ``flat``.
    columns["hop_off"] = map(flat.hop_off[-1].__add__, islice(columns["hop_off"], 1, None))
    for name, values in columns.items():
        getattr(flat, name).extend(values)
    return header


def _read_shard(manifest_path: str, shard: dict, flat: FlatSchedule) -> None:
    """Append one manifest-listed shard to ``flat``, checking its count."""
    shard_path = os.path.join(os.path.dirname(manifest_path) or ".", shard["file"])
    header = _read_schedule_file(shard_path, flat)
    if header["packets"] != shard["packets"]:
        raise ValueError(
            f"{shard_path}: manifest promises {shard['packets']} packets, "
            f"found {header['packets']} (truncated shard?)"
        )


def stored_schedule_packets(path: Union[str, "os.PathLike"]) -> int:
    """Packet count of a stored schedule, read from its header/manifest only.

    Costs one line of I/O regardless of schedule size — how shard planners
    size their partitions without touching any column data.
    """
    path = os.fspath(path)
    if path.endswith(MANIFEST_SUFFIX):
        return load_manifest(path)["packets"]
    with _open_schedule_file(path) as (_, header):
        return header["packets"]


def iter_schedule_records(path: Union[str, "os.PathLike"]) -> Iterator[PacketRecord]:
    """Cursor through a stored schedule's records in canonical order.

    Works on both on-disk forms — a single ``repro-schedule/2`` file or a
    ``repro-schedule-manifest/1`` manifest (shards are visited in manifest
    order, which *is* canonical ``(ingress_time, packet_id)`` order) — and
    holds one file's columns at a time, never the whole sharded schedule:
    the cache writes any schedule larger than its shard size as shards, so
    one file is bounded by that size.  This is the scale tier's read path:
    the streaming metrics and per-shard replay cursors consume it directly.

    Raises the same errors as :func:`load_schedule` on malformed input:
    ``ValueError`` for truncated or foreign files, ``OSError`` (e.g.
    ``FileNotFoundError``) for a shard the manifest names but the directory
    lacks.
    """
    path = os.fspath(path)
    if not path.endswith(MANIFEST_SUFFIX):
        flat = FlatSchedule()
        _read_schedule_file(path, flat)
        yield from flat.iter_records()
        return
    for shard in load_manifest(path)["shards"]:
        flat = FlatSchedule()
        _read_shard(path, shard, flat)
        yield from flat.iter_records()


def load_schedule(path: Union[str, "os.PathLike"]) -> Tuple[Schedule, dict]:
    """Load a schedule written by :func:`save_schedule` or :func:`save_schedule_sharded`.

    The schedule comes back columnar (see :class:`Schedule`): each column
    is decoded straight into a :class:`FlatSchedule` list, and per-packet
    objects are only built if a caller asks for them.  Manifest paths
    (ending in :data:`MANIFEST_SUFFIX`) load every shard and return a
    schedule identical to the single-file form — shard layout is storage,
    not content.  A duplicate packet id raises ``ValueError``.

    Returns:
        ``(schedule, meta)`` where ``meta`` is the free-form metadata stored
        in the file's header line (the manifest's, for sharded schedules).
    """
    path = os.fspath(path)
    flat = FlatSchedule()
    if path.endswith(MANIFEST_SUFFIX):
        header = load_manifest(path)
        for shard in header["shards"]:
            _read_shard(path, shard, flat)
    else:
        header = _read_schedule_file(path, flat)
    flat.index()
    return Schedule.from_flat(flat), header.get("meta", {})
