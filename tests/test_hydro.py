"""River topology, two-segment production curve, and period rescaling."""

import numpy as np
import pytest

from hydrosp.hydro import (CsvTable, PlantData, RiverNetwork, Resolution,
                           production_segments, periods_from_minutes,
                           rescale, default_initial_volumes, load_river,
                           default_river, write_csv)
from _toys import three_plant


# -------------------------------------------------------- production curve

def test_segments_pinned_gallejaur():
    river = default_river()
    plant = river.plants[river.index["gallejaur"]]
    assert plant.capacity_mw == 214.0 and plant.max_discharge_m3s == 310.0
    mu1, mu2, q1, q2 = production_segments(plant)
    assert mu1 == pytest.approx(214.0 / (310.0 * 0.9875), rel=1e-12)
    assert mu2 == pytest.approx(0.95 * mu1, rel=1e-12)
    assert q1 == pytest.approx(232.5) and q2 == pytest.approx(77.5)


def test_segments_pinned_rebnis():
    river = default_river()
    plant = river.plants[river.index["rebnis"]]
    mu1, _, _, _ = production_segments(plant)
    assert mu1 == pytest.approx(64.0 / 79.0, rel=1e-12)


def test_segments_unit_normalization():
    plant = PlantData("u", "Unit", 0.9875, 1.0, 1.0)
    mu1, mu2, q1, q2 = production_segments(plant)
    assert mu1 == 1.0
    assert mu2 == pytest.approx(0.95, rel=1e-15)
    assert (q1, q2) == (0.75, 0.25)


def test_segments_need_positive_discharge():
    with pytest.raises(ValueError, match="discharge"):
        production_segments(PlantData("z", "Zero", 1.0, 0.0, 1.0))


def test_full_throttle_reproduces_capacity_all_plants():
    for plant in default_river().plants:
        mu1, mu2, q1, q2 = production_segments(plant)
        peak = mu1 * q1 + mu2 * q2
        assert abs(peak - plant.capacity_mw) <= 1e-12 * plant.capacity_mw
        # first segment is strictly the more efficient one
        assert mu1 > mu2 > 0.0


# ------------------------------------------------------------- rescaling

def test_periods_from_minutes_rounds_ties_toward_zero():
    assert periods_from_minutes(0.0, 1) == 0
    assert periods_from_minutes(30.0, 1) == 0      # exactly half a period
    assert periods_from_minutes(31.0, 1) == 1
    assert periods_from_minutes(60.0, 1) == 1
    assert periods_from_minutes(90.0, 1) == 1
    assert periods_from_minutes(91.0, 1) == 2
    assert periods_from_minutes(60.0, 24) == 0     # an hour vanishes daily
    assert periods_from_minutes(2880.0, 24) == 2


def test_resolution_validation():
    assert Resolution(1).hours_per_period == 1
    assert Resolution(24).hours_per_period == 24
    with pytest.raises(ValueError):
        Resolution(0)
    with pytest.raises(ValueError):
        Resolution(2.5)


def test_rescale_hourly_is_identity_on_volumes():
    net = three_plant()
    scaled = rescale(net, Resolution(1))
    for i, plant in enumerate(net.plants):
        mu1, mu2, q1, q2 = production_segments(plant)
        assert scaled.max_volume[i] == plant.max_volume_he
        assert scaled.mu1[i] == mu1 and scaled.mu2[i] == mu2
        assert scaled.qmax1[i] == q1 and scaled.qmax2[i] == q2


def test_rescale_daily_pinned_bergnas():
    river = default_river()
    scaled = rescale(river, Resolution(24))
    i = river.index["bergnas"]
    assert scaled.max_volume[i] == pytest.approx(425280.0 / 24.0)
    assert scaled.max_volume[i] == pytest.approx(17720.0)


def test_rescale_preserves_peak_energy_per_period():
    river = default_river()
    for hpp in (1, 24, 120):
        scaled = rescale(river, Resolution(hpp))
        for i, plant in enumerate(river.plants):
            peak = scaled.mu1[i] * scaled.qmax1[i] + \
                scaled.mu2[i] * scaled.qmax2[i]
            assert peak == pytest.approx(hpp * plant.capacity_mw,
                                         rel=1e-12)


def test_rescale_flow_time_periods():
    river = default_river()
    hourly = rescale(river, Resolution(1))
    daily = rescale(river, Resolution(24))
    i = river.index["rebnis"]                      # 2880 min = 48 h
    assert hourly.tau_q[i] == 48
    assert daily.tau_q[i] == 2
    j = river.index["bergnas"]                     # 60 min
    assert hourly.tau_q[j] == 1
    assert daily.tau_q[j] == 0


def test_default_initial_volumes_fraction():
    scaled = rescale(three_plant(), Resolution(1))
    half = default_initial_volumes(scaled)
    assert half == pytest.approx(0.5 * scaled.max_volume)
    full = default_initial_volumes(scaled, fraction=1.0)
    assert full == pytest.approx(scaled.max_volume)


# -------------------------------------------------------------- topology

def test_default_river_shape():
    river = default_river()
    assert len(river.plants) == 15
    assert river.plant_ids[0] == "rebnis"
    assert river.plant_ids[-1] == "kvistforsen"
    assert river.downstream[river.index["kvistforsen"]] == -1
    # two headwater reservoirs feed bergnas
    up = sorted(river.plant_ids[k]
                for k in river.upstream[river.index["bergnas"]])
    assert up == ["rebnis", "sadva"]


def test_upstream_sets_invert_downstream():
    river = default_river()
    for i, d in enumerate(river.downstream):
        if d >= 0:
            assert i in river.upstream[d]
    n_edges = sum(len(u) for u in river.upstream)
    assert n_edges == sum(1 for d in river.downstream if d >= 0) == 14


def test_default_river_is_parsed_once_and_refuses_writes():
    river = default_river()
    assert default_river() is river
    with pytest.raises(AttributeError):
        river.plants.append(river.plants[0])
    with pytest.raises(ValueError, match="read-only"):
        river.downstream[0] = 3
    with pytest.raises(AttributeError):
        river.upstream[river.index["bergnas"]].append(0)
    with pytest.raises(TypeError):
        river.index["ghost"] = 0
    with pytest.raises(AttributeError, match="immutable"):
        river.plants = ()
    assert len(river.plants) == 15 and "ghost" not in river.index


def test_network_validation():
    with pytest.raises(ValueError, match="at least one"):
        RiverNetwork([])
    dup = PlantData("a", "A", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        RiverNetwork([dup, dup])
    with pytest.raises(ValueError, match="unknown downstream"):
        RiverNetwork([PlantData("a", "A", 1.0, 1.0, 1.0, "ghost")])
    with pytest.raises(ValueError, match="cycle|acyclic"):
        RiverNetwork([PlantData("a", "A", 1.0, 1.0, 1.0, "b"),
                      PlantData("b", "B", 1.0, 1.0, 1.0, "a")])


def test_plant_data_validation():
    with pytest.raises(ValueError, match="non-negative"):
        PlantData("a", "A", -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="maintenance_hours"):
        PlantData("a", "A", 1.0, 1.0, 1.0, maintenance_hours=30)


def test_load_river_round_trip(tmp_path):
    path = tmp_path / "river.csv"
    path.write_text(
        "plant_id,name,capacity_mw,max_discharge_m3s,max_volume_he,"
        "downstream_id,flow_time_discharge_min,flow_time_spill_min,"
        "maintenance_hours\n"
        "up,Upper,10,20,100,dn,60,90,2\n"
        "dn,Lower,8,16,50,,,,0\n")
    river = load_river(path)
    assert list(river.plant_ids) == ["up", "dn"]
    assert river.plants[0].flow_time_spill_min == 90.0
    assert river.plants[1].downstream_id is None
    assert river.plants[1].flow_time_discharge_min == 0.0
    assert river.plants[0].maintenance_hours == 2


def test_load_river_rejects_unknown_downstream(tmp_path):
    path = tmp_path / "river.csv"
    path.write_text(
        "plant_id,name,capacity_mw,max_discharge_m3s,max_volume_he,"
        "downstream_id,flow_time_discharge_min,flow_time_spill_min,"
        "maintenance_hours\n"
        "up,Upper,10,20,100,nowhere,60,90,2\n")
    with pytest.raises(ValueError, match="nowhere"):
        load_river(path)


@pytest.mark.parametrize("row, message", [
    ("up,Upper,10,20,100,,60,90,x",
     "line 4: invalid literal for int() with base 10: 'x'"),
    ("up,Upper,10,20,100,,60,90", "line 4: 8 columns, the header has 9"),
])
def test_load_river_names_the_line_of_a_bad_row(tmp_path, row, message):
    # the comment and the blank line count: the line is the file's own
    path = tmp_path / "river.csv"
    path.write_text(
        "# units: MW, m3/s, HE, minutes, hours\n"
        "plant_id,name,capacity_mw,max_discharge_m3s,max_volume_he,"
        "downstream_id,flow_time_discharge_min,flow_time_spill_min,"
        "maintenance_hours\n\n" + row + "\n")
    with pytest.raises(ValueError) as ei:
        load_river(path)
    assert str(ei.value) == f"{path}, {message}"


FLOATS = [0.1, -0.0, 5e-324, np.float64(1 / 3), np.inf]


@pytest.mark.parametrize("units", [None, "value Eur"])
def test_write_csv_floats_read_back_bit_for_bit(tmp_path, units):
    path = tmp_path / "artifact.csv"
    write_csv(path, ["id", "value", "count"],
              ([f"r{i}", v, np.int64(i)] for i, v in enumerate(FLOATS)),
              units=units)
    text = path.read_bytes().decode()
    assert "\r" not in text
    head = ["id,value,count"]
    if units is not None:
        head.insert(0, "# units: value Eur")
    lines = text.split("\n")
    assert lines[:len(head)] == head and lines[-1] == ""
    rows = CsvTable(path, ("id", "value", "count")).parse(
        lambda row: (row["id"], float(row["value"]), row["count"]))
    assert [(name, count) for name, _, count in rows] == [
        (f"r{i}", str(i)) for i in range(len(FLOATS))]
    for (_, back, _), v in zip(rows, FLOATS):
        assert np.float64(back).tobytes() == np.float64(v).tobytes()


def test_write_csv_writes_other_cells_as_given(tmp_path):
    path = tmp_path / "artifact.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [[3, np.int64(-4), "x,y", ""], [None, True, "plain", 2.0]])
    assert path.read_text() == 'a,b,c,d\n3,-4,"x,y",\n,True,plain,2.0\n'
