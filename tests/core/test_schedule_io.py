"""Schedule persistence: the ``repro-schedule/2`` round-trip must be lossless."""

import dataclasses
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.metrics import ReplayMetrics, compare_schedules
from repro.core.replay import evaluate_replay
from repro.core.schedule import (
    MANIFEST_SUFFIX,
    SCHEDULE_FORMAT,
    FlatSchedule,
    HopTiming,
    PacketRecord,
    Schedule,
    iter_schedule_records,
    load_schedule,
    save_schedule,
    save_schedule_sharded,
)
from repro.pipeline.experiment import record_scenario_schedule
from repro.pipeline.scenario import Scenario
from repro.experiments import ExperimentScale
from repro.topology.base import Topology, dumbbell_topology
from tests.conftest import column_values, read_schedule_file, set_column, write_schedule_file

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
node_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)


@st.composite
def hop_timings(draw):
    arrival = draw(finite)
    start = draw(st.one_of(st.none(), finite))
    departure = draw(st.one_of(st.none(), finite))
    return HopTiming(
        node=draw(node_names),
        arrival_time=arrival,
        start_service_time=start,
        departure_time=departure,
    )


@st.composite
def packet_records(draw, packet_id):
    hops = draw(st.lists(hop_timings(), max_size=4))
    path = [hop.node for hop in hops] + [draw(node_names)]
    return PacketRecord(
        packet_id=packet_id,
        flow_id=draw(st.integers(min_value=0, max_value=2**31)),
        src=draw(node_names),
        dst=draw(node_names),
        size_bytes=draw(st.floats(min_value=1.0, max_value=1e9, allow_nan=False)),
        ingress_time=draw(finite),
        output_time=draw(finite),
        path=path,
        hops=hops,
        flow_size_bytes=draw(st.one_of(st.none(), finite)),
        deadline=draw(st.one_of(st.none(), finite)),
    )


@st.composite
def schedules(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=12))
    return Schedule([draw(packet_records(packet_id)) for packet_id in ids])


# --------------------------------------------------------------------- #
# Property: to_jsonl -> from_jsonl is the identity
# --------------------------------------------------------------------- #
class TestRoundTripProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(schedule=schedules(), compressed=st.booleans())
    def test_round_trip_is_lossless(self, schedule, compressed, tmp_path):
        path = tmp_path / ("s.jsonl.gz" if compressed else "s.jsonl")
        schedule.to_jsonl(path, meta={"n": len(schedule)})
        loaded, meta = load_schedule(path)
        assert meta == {"n": len(schedule)}
        assert sorted(loaded.packet_ids()) == sorted(schedule.packet_ids())
        for record in schedule:
            copy = loaded.record(record.packet_id)
            # Dataclass equality covers every field, including the full hop
            # vector with exact float values.
            assert copy == record

    @settings(max_examples=15, deadline=None)
    @given(schedule=schedules())
    def test_records_sorted_identically_after_reload(self, schedule):
        # records() ordering (ingress, packet id) is what replay injection
        # uses; it must be stable across a round-trip.
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.jsonl")
            save_schedule(path, schedule)
            loaded, _ = load_schedule(path)
        assert [r.packet_id for r in loaded.records()] == [
            r.packet_id for r in schedule.records()
        ]


def columns(flat):
    """Every column of a FlatSchedule, by name."""
    return {f.name: getattr(flat, f.name) for f in dataclasses.fields(flat) if f.init}


def reference_compare(original, replay, threshold, tolerance=1e-9):
    """compare_schedules as a record-level walk: the oracle for the columns."""
    metrics = ReplayMetrics(threshold=threshold)
    lateness_total = 0.0
    deadline_flows = {}
    for record in original:
        metrics.total_packets += 1
        replayed = replay.get(record.packet_id)
        if record.deadline is not None:
            entry = deadline_flows.setdefault(
                record.flow_id, [record.deadline, -math.inf, -math.inf, False]
            )
            entry[1] = max(entry[1], record.output_time)
            if replayed is None:
                entry[3] = True
            else:
                entry[2] = max(entry[2], replayed.output_time)
        if replayed is None:
            metrics.missing_packets += 1
            metrics.overdue_count += 1
            metrics.overdue_beyond_threshold_count += 1
            continue
        lateness = replayed.output_time - record.output_time
        if lateness > tolerance:
            metrics.overdue_count += 1
            if lateness > threshold:
                metrics.overdue_beyond_threshold_count += 1
            lateness_total += lateness
            metrics.max_lateness = max(metrics.max_lateness, lateness)
        if record.total_queueing_delay > 0:
            metrics.queueing_delay_ratios.append(
                replayed.total_queueing_delay / record.total_queueing_delay
            )
    for deadline, original_last, replay_last, missing in deadline_flows.values():
        metrics.deadline_total += 1
        if original_last <= deadline + tolerance:
            metrics.deadline_met_original += 1
        if not missing:
            metrics.deadline_flows_delivered += 1
            if replay_last <= deadline + tolerance:
                metrics.deadline_met_replay += 1
    if metrics.total_packets:
        metrics.mean_lateness = lateness_total / metrics.total_packets
    return metrics


@st.composite
def replays_of(draw, schedule):
    """A replay-shaped schedule of ``schedule``: some packets missing, new times."""
    records = []
    for record in schedule:
        if draw(st.booleans()):
            continue
        hops = [
            HopTiming(hop.node, hop.arrival_time, draw(st.one_of(st.none(), finite)), None)
            for hop in record.hops
        ]
        records.append(
            dataclasses.replace(record, output_time=draw(finite), hops=hops)
        )
    return Schedule(draw(st.permutations(records)))


def save_and_load(schedule, directory, name):
    path = os.path.join(directory, name)
    save_schedule(path, schedule)
    loaded, _ = load_schedule(path)
    return loaded


class TestColumnarSchedule:
    """Loaded and replayed schedules are columns; they must equal the records."""

    @settings(max_examples=40, deadline=None)
    @given(schedule=schedules())
    def test_columnar_load_equals_record_built(self, schedule):
        # The strategy inserts records in drawn-id order, so insertion order
        # is usually not canonical; files are written in canonical order.
        with tempfile.TemporaryDirectory() as tmp:
            loaded = save_and_load(schedule, tmp, "s.jsonl.gz")
        canonical = schedule.records()
        # repr() compares floats by their exact digits, NaN sums included.
        assert repr(columns(loaded.flat())) == repr(columns(FlatSchedule.from_records(canonical)))
        assert repr(columns(schedule.flat().canonical())) == repr(columns(loaded.flat()))
        assert [r.packet_id for r in schedule.flat().iter_records()] == [
            r.packet_id for r in schedule
        ]
        # Records materialize on first access, equal field by field —
        # None hop start/departure times and None deadlines included.
        assert loaded._records is None
        assert list(loaded) == canonical
        assert repr(loaded.flat().queueing_delays()) == repr(
            [r.total_queueing_delay for r in canonical]
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data(), schedule=schedules(), threshold=finite)
    def test_compare_on_columns_equals_record_walk(self, data, schedule, threshold):
        replay = data.draw(replays_of(schedule))
        expected = reference_compare(schedule, replay, threshold)
        # repr() covers every field, the ratio list in order, and compares
        # each float by its exact digits (NaN ratios included).
        assert repr(compare_schedules(schedule, replay, threshold)) == repr(expected)
        # Columnar inputs: compared before anything materializes records.
        with tempfile.TemporaryDirectory() as tmp:
            loaded = save_and_load(schedule, tmp, "o.jsonl")
            loaded_replay = save_and_load(replay, tmp, "r.jsonl")
        metrics = compare_schedules(loaded, loaded_replay, threshold)
        assert loaded._records is None and loaded_replay._records is None
        assert repr(metrics) == repr(reference_compare(loaded, loaded_replay, threshold))

    def test_duplicate_packet_id_in_file_is_rejected(self, tmp_path):
        records = [
            PacketRecord(pid, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"]) for pid in (1, 2)
        ]
        path = tmp_path / "dup.jsonl"
        save_schedule(path, Schedule(records))
        header, columns = read_schedule_file(path)
        set_column(columns["packet_id"], [1, 1])
        write_schedule_file(path, header, columns)
        with pytest.raises(ValueError, match="duplicate packet id 1"):
            load_schedule(path)

    def test_malformed_hop_is_rejected(self, tmp_path):
        hop = HopTiming("a", 0.0, 0.1, 0.2)
        record = PacketRecord(1, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"], [hop])
        path = tmp_path / "hop.jsonl"
        save_schedule(path, Schedule([record]))
        header, columns = read_schedule_file(path)
        set_column(columns["hop_start"], [])
        write_schedule_file(path, header, columns)
        with pytest.raises(ValueError, match="column 'hop_start' holds 0 rows, expected 1"):
            load_schedule(path)
        set_column(columns["hop_start"], [0.1])
        set_column(columns["hop_off"], [1, 1])
        write_schedule_file(path, header, columns)
        with pytest.raises(ValueError, match="'hop_off' is not 2 ascending offsets"):
            load_schedule(path)


# --------------------------------------------------------------------- #
# The repro-schedule/2 column format
# --------------------------------------------------------------------- #
#: Every float64 value, infinities and -0.0 included.
any_float = st.floats(allow_nan=False, width=64)


@st.composite
def wide_records(draw, packet_id):
    """Records whose float fields range over infinities, -0.0 and None."""
    record = draw(packet_records(packet_id))
    hops = [
        HopTiming(
            hop.node,
            draw(any_float),
            draw(st.one_of(st.none(), any_float)),
            draw(st.one_of(st.none(), any_float)),
        )
        for hop in record.hops
    ]
    return dataclasses.replace(
        record,
        flow_id=draw(st.integers(min_value=0, max_value=2**40)),
        ingress_time=draw(any_float),
        output_time=draw(any_float),
        hops=hops,
        flow_size_bytes=draw(st.one_of(st.none(), any_float)),
        deadline=draw(st.one_of(st.none(), any_float)),
    )


@st.composite
def wide_schedules(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=12))
    return Schedule([draw(wide_records(packet_id)) for packet_id in ids])


class TestColumnFormat:
    """`repro-schedule/2`: one typed column per line, bit-exact, fully checked."""

    @settings(max_examples=40, deadline=None)
    @given(schedule=wide_schedules(), shard_packets=st.integers(min_value=1, max_value=5))
    def test_round_trip_is_bit_exact_single_and_sharded(self, schedule, shard_packets):
        # Insertion order is the drawn id order, usually not canonical.
        expected = repr(columns(schedule.flat().canonical()))
        with tempfile.TemporaryDirectory() as tmp:
            single = save_and_load(schedule, tmp, "s.jsonl.gz")
            manifest = os.path.join(tmp, "s" + MANIFEST_SUFFIX)
            save_schedule_sharded(manifest, schedule, shard_packets=shard_packets)
            sharded, _ = load_schedule(manifest)
            cursor = list(iter_schedule_records(manifest))
        # repr() compares every float by its digits: -0.0 and inf survive.
        assert repr(columns(single.flat())) == expected
        assert repr(columns(sharded.flat())) == expected
        assert repr(cursor) == repr(schedule.records())

    def test_layout_and_special_values(self, tmp_path):
        hops = [HopTiming("a", -0.0, None, math.inf), HopTiming("s", 1.0, 1.5, None)]
        record = PacketRecord(
            2**40, 2**40 + 1, "a", "b", 1500.0, -0.0, math.inf, ["a", "s", "b"], hops
        )
        path = tmp_path / "s.jsonl.gz"
        save_schedule(path, Schedule([record]), meta={"k": 1})
        header, stored = read_schedule_file(path)
        assert header["format"] == "repro-schedule/2" and header["packets"] == 1
        assert header["nodes"] == ["a", "b", "s"]
        assert header["routes"] == [[0, 2, 1]]
        assert {name: entry["dtype"] for name, entry in stored.items()} == {
            "packet_id": "<i8", "flow_id": "<i8", "src": "<i4", "dst": "<i4",
            "size_bytes": "<f8", "ingress_time": "<f8", "output_time": "<f8",
            "path": "<i4", "flow_size_bytes": "<f8", "deadline": "<f8",
            "hop_off": "<i8", "hop_node": "<i4", "hop_arrival": "<f8",
            "hop_start": "<f8", "hop_departure": "<f8",
        }
        assert column_values(stored["packet_id"]) == [2**40]
        assert column_values(stored["hop_node"]) == [0, 2]
        assert stored["hop_start"]["nulls"] == [0]
        assert stored["deadline"]["nulls"] == [0]
        loaded, meta = load_schedule(path)
        assert meta == {"k": 1}
        assert repr(loaded.record(2**40)) == repr(record)
        assert math.copysign(1.0, loaded.flat().ingress_time[0]) == -1.0

    def _saved(self, tmp_path):
        record = PacketRecord(
            1, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"], [HopTiming("a", 0.0, 0.0, 0.5)]
        )
        path = tmp_path / "s.jsonl"
        save_schedule(path, Schedule([record]))
        return path, *read_schedule_file(path)

    def test_wrong_length_column_is_rejected(self, tmp_path):
        path, header, stored = self._saved(tmp_path)
        set_column(stored["output_time"], [1.0, 2.0])
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="'output_time' holds 2 rows, expected 1"):
            load_schedule(path)

    def test_missing_column_is_rejected(self, tmp_path):
        path, header, stored = self._saved(tmp_path)
        del stored["src"]
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match=r"missing column\(s\) \['src'\]"):
            load_schedule(path)

    def test_unknown_dtype_is_rejected(self, tmp_path):
        path, header, stored = self._saved(tmp_path)
        stored["size_bytes"]["dtype"] = "<f4"
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="'size_bytes' has dtype '<f4'"):
            load_schedule(path)

    def test_bad_index_and_null_rows_are_rejected(self, tmp_path):
        path, header, stored = self._saved(tmp_path)
        set_column(stored["dst"], [7])
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="'dst' indexes past"):
            load_schedule(path)
        set_column(stored["dst"], [1])
        stored["deadline"]["nulls"] = [-1]
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="null row -1"):
            load_schedule(path)
        stored["deadline"]["nulls"] = [0]
        stored["packet_id"]["nulls"] = [0]
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="'packet_id' cannot hold nulls"):
            load_schedule(path)

    def test_malformed_column_line_is_a_value_error(self, tmp_path):
        path, header, stored = self._saved(tmp_path)
        del stored["flow_id"]["nulls"]
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="malformed column line"):
            load_schedule(path)


class TestNullColumns:
    def test_none_deadlines_load_as_none(self, tmp_path):
        """A schedule without deadlines stores them as nulls and reloads None."""
        record = PacketRecord(
            packet_id=1,
            flow_id=1,
            src="a",
            dst="b",
            size_bytes=100.0,
            ingress_time=0.0,
            output_time=1.0,
            path=["a", "b"],
        )
        path = tmp_path / "nulls.jsonl"
        save_schedule(path, Schedule([record]))
        _, stored = read_schedule_file(path)
        assert stored["deadline"]["nulls"] == [0]
        assert stored["flow_size_bytes"]["nulls"] == [0]
        loaded, _ = load_schedule(path)
        assert loaded.flat().deadline == [None]
        assert loaded.record(1).deadline is None


# --------------------------------------------------------------------- #
# File-format edge cases
# --------------------------------------------------------------------- #
class TestFileFormat:
    def test_rejects_non_schedule_files(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-schedule/2 file"):
            load_schedule(path)

    def test_rejects_repro_schedule_1_files(self, tmp_path):
        """The one-object-per-record format has no reader any more."""
        header = {"format": "repro-schedule/1", "packets": 1, "meta": {}}
        record = PacketRecord(1, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"]).to_dict()
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(
            ValueError, match=r"not a repro-schedule/2 file \(format='repro-schedule/1'\)"
        ):
            load_schedule(path)

    def test_rejects_empty_files(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty schedule file"):
            load_schedule(path)

    def test_detects_truncation(self, tmp_path):
        schedule = Schedule(
            [
                PacketRecord(i, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"])
                for i in range(3)
            ]
        )
        path = tmp_path / "s.jsonl"
        save_schedule(path, schedule)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last column
        with pytest.raises(ValueError, match="truncated"):
            load_schedule(path)
        # A column cut short inside its data is caught by its row count.
        save_schedule(path, schedule)
        header, stored = read_schedule_file(path)
        set_column(stored["ingress_time"], column_values(stored["ingress_time"])[:2])
        write_schedule_file(path, header, stored)
        with pytest.raises(ValueError, match="holds 2 rows, expected 3 \\(truncated"):
            load_schedule(path)

    def test_header_carries_format_tag(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_schedule(path, Schedule())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == SCHEDULE_FORMAT
        assert header["packets"] == 0


# --------------------------------------------------------------------- #
# Topology spec round-trip (carried in schedule-file metadata)
# --------------------------------------------------------------------- #
class TestTopologySpecRoundTrip:
    def test_round_trip(self):
        topo = dumbbell_topology(
            num_pairs=2, bottleneck_bandwidth_bps=1e7, access_bandwidth_bps=1e8
        )
        clone = Topology.from_dict(topo.to_dict())
        assert clone == topo

    def test_bottleneck_transmission_time_matches_specs(self):
        topo = dumbbell_topology(
            num_pairs=2, bottleneck_bandwidth_bps=1e7, access_bandwidth_bps=1e8
        )
        assert topo.bottleneck_bandwidth_bps() == 1e7
        assert topo.bottleneck_transmission_time(1460) == pytest.approx(1460 * 8 / 1e7)


# --------------------------------------------------------------------- #
# End to end: a recorded schedule replays identically after a round-trip
# --------------------------------------------------------------------- #
class TestRecordedScheduleRoundTrip:
    def test_loaded_schedule_replays_identically(self, tmp_path):
        scale = ExperimentScale.smoke()
        scenario = Scenario(
            name="io-test",
            scale=scale,
            topology="internet2",
            topology_args=(("edge_core_gbps", 1.0), ("host_edge_gbps", 10.0)),
            utilization=0.5,
        )
        topology = scenario.build_topology()
        schedule = record_scenario_schedule(scenario, topology)
        path = tmp_path / "recorded.jsonl.gz"
        schedule.to_jsonl(path, meta={"topology": topology.to_dict()})
        loaded, meta = load_schedule(path)
        assert len(loaded) == len(schedule)
        for record in schedule:
            assert loaded.record(record.packet_id) == record
        rebuilt = Topology.from_dict(meta["topology"])
        fresh = evaluate_replay(topology, schedule, mode="lstf")
        reloaded = evaluate_replay(rebuilt, loaded, mode="lstf")
        assert reloaded.metrics.overdue_count == fresh.metrics.overdue_count
        assert reloaded.metrics.threshold == fresh.metrics.threshold


class TestCanonicalRecords:
    """`canonical_records` is the comparator's walk order, pinned here."""

    def test_sorted_by_ingress_time_then_packet_id(self):
        def rec(packet_id, ingress):
            return PacketRecord(
                packet_id=packet_id,
                flow_id=0,
                src="a",
                dst="b",
                size_bytes=100.0,
                ingress_time=ingress,
                output_time=ingress + 1.0,
                path=["a", "b"],
                hops=[],
            )

        # Inserted deliberately out of order, with an ingress tie on 7/3.
        schedule = Schedule([rec(7, 0.5), rec(1, 0.9), rec(3, 0.5), rec(2, 0.1)])
        order = [
            (r.ingress_time, r.packet_id) for r in schedule.canonical_records()
        ]
        assert order == [(0.1, 2), (0.5, 3), (0.5, 7), (0.9, 1)]
        assert order == sorted(order)
